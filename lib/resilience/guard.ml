type violation = {
  index : int;
  value : float;
  block : int option;
  offset : int option;
  context : string;
}

exception Non_finite of violation

let scan ?(context = "") ?block_size (v : Linalg.Vec.t) =
  let n = Array.length v in
  let rec find i =
    if i >= n then None
    else if Float.is_finite v.(i) then find (i + 1)
    else
      let block, offset =
        match block_size with
        | Some s when s > 0 -> (Some (i / s), Some (i mod s))
        | _ -> (None, None)
      in
      Some { index = i; value = v.(i); block; offset; context }
  in
  find 0

let finite v =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length v do
    ok := Float.is_finite v.(!i);
    incr i
  done;
  !ok

let guarded ?context ?block_size ~on_violation f x r =
  f x r;
  (* Fault-injection hook: a [nan@residual]/[inf@residual] fault
     corrupts the freshly evaluated vector *before* the scan, so the
     poison flows through the same violation path a real one would. *)
  Faultinject.corrupt_vector Faultinject.Residual r;
  (match scan ?context ?block_size r with
  | Some violation -> on_violation violation
  | None -> ())

let pp_violation ppf { index; value; block; offset; context } =
  let where =
    match (block, offset) with
    | Some b, Some o -> Printf.sprintf "grid-point %d, unknown %d (flat %d)" b o index
    | _ -> Printf.sprintf "index %d" index
  in
  Format.fprintf ppf "non-finite value %h at %s%s" value where
    (if context = "" then "" else " during " ^ context)

let violation_to_string v = Format.asprintf "%a" pp_violation v
