type cls =
  | Quadratic
  | Linear of float
  | Stagnating
  | Diverging
  | Rescued of string
  | Insufficient_data

let divergence_ratio = 1.5

let stagnation_ratio = 0.97

let quadratic_order_min = 1.6

let clean history =
  Array.to_list history
  |> List.filter (fun r -> Float.is_finite r && r > 0.0)
  |> Array.of_list

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* Successive step ratios r_{i+1}/r_i. *)
let ratios r =
  Array.init (Array.length r - 1) (fun i -> r.(i + 1) /. r.(i))

let rate_estimate history =
  let r = clean history in
  if Array.length r < 2 then None
  else begin
    let decreasing =
      ratios r |> Array.to_list |> List.filter (fun q -> q < 1.0 && q > 0.0)
    in
    match decreasing with
    | [] -> None
    | l ->
        let log_sum = List.fold_left (fun a q -> a +. log q) 0.0 l in
        Some (exp (log_sum /. float_of_int (List.length l)))
  end

(* Observed order over strictly decreasing triples; flat samples (e.g.
   a residual parked at the round-off floor) contribute nothing. *)
let observed_order history =
  let r = clean history in
  let n = Array.length r in
  if n < 3 then None
  else begin
    let orders = ref [] in
    for i = 1 to n - 2 do
      if r.(i) < r.(i - 1) && r.(i + 1) < r.(i) then begin
        let denom = log (r.(i) /. r.(i - 1)) in
        if denom < -1e-9 then
          orders := (log (r.(i + 1) /. r.(i)) /. denom) :: !orders
      end
    done;
    match !orders with [] -> None | l -> Some (median (Array.of_list l))
  end

let classify ?strategy history =
  match strategy with
  | Some s when s <> "newton" && s <> "" && s <> "none" -> Rescued s
  | _ ->
      let r = clean history in
      let n = Array.length r in
      if n < 3 then Insufficient_data
      else begin
        let rho = ratios r in
        let med = median rho in
        if med >= divergence_ratio || r.(n - 1) > 10.0 *. r.(0) then Diverging
        else if med >= stagnation_ratio then Stagnating
        else
          match observed_order history with
          | Some q when q >= quadratic_order_min -> Quadratic
          | _ -> (
              match rate_estimate history with
              | Some rate -> Linear rate
              | None -> Stagnating)
      end

let to_string = function
  | Quadratic -> "quadratic"
  | Linear rate -> Printf.sprintf "linear(rate=%.2f)" rate
  | Stagnating -> "stagnating"
  | Diverging -> "diverging"
  | Rescued s -> Printf.sprintf "rescued(%s)" s
  | Insufficient_data -> "insufficient-data"
