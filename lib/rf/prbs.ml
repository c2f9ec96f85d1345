let lfsr ~bits ~tap_a ~tap_b ~seed n =
  let mask = (1 lsl bits) - 1 in
  let state = ref (seed land mask) in
  if !state = 0 then invalid_arg "Prbs: seed must be nonzero";
  Array.init n (fun _ ->
      let bit = ((!state lsr tap_a) lxor (!state lsr tap_b)) land 1 in
      state := ((!state lsl 1) lor bit) land mask;
      bit = 1)

let prbs7 ?(seed = 0x5A) n = lfsr ~bits:7 ~tap_a:6 ~tap_b:5 ~seed n
