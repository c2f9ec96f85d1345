(* IKJ-variant ILU(0): in-place elimination restricted to the original
   pattern. Stored as a modified copy of the CSR values plus the position
   of each row's diagonal. *)

type t = { m : Csr.t; diag_pos : int array; pos : int array }

exception Zero_pivot of int

(* The elimination kernel, shared by [factor] and [refactor]: runs on
   [values] in place over the frozen pattern, using [pos] as the scatter
   workspace (all -1 on entry and exit). *)
let eliminate ~row_ptr ~col_idx ~values ~diag_pos ~pos =
  let n = Array.length diag_pos in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      pos.(col_idx.(p)) <- p
    done;
    let p = ref row_ptr.(i) in
    while !p < row_ptr.(i + 1) && col_idx.(!p) < i do
      let k = col_idx.(!p) in
      let pivot = values.(diag_pos.(k)) in
      if pivot = 0.0 then raise (Zero_pivot k);
      let factor = values.(!p) /. pivot in
      values.(!p) <- factor;
      (* Update the rest of row i over the pattern intersection. *)
      for q = diag_pos.(k) + 1 to row_ptr.(k + 1) - 1 do
        let j = col_idx.(q) in
        let dest = pos.(j) in
        if dest >= 0 then values.(dest) <- values.(dest) -. (factor *. values.(q))
      done;
      incr p
    done;
    if values.(diag_pos.(i)) = 0.0 then raise (Zero_pivot i);
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      pos.(col_idx.(p)) <- -1
    done
  done

let factor (a : Csr.t) =
  let n = a.Csr.rows in
  if a.Csr.cols <> n then invalid_arg "Ilu0.factor: matrix not square";
  Telemetry.span "ilu0.factor" @@ fun () ->
  Telemetry.count "ilu0.factors";
  Telemetry.gauge "ilu0.n" (float_of_int n);
  (* ILU(0) keeps the original pattern, so nnz doubles as the fill
     figure — fill ratio is 1.0 by construction. *)
  Telemetry.gauge "ilu0.nnz" (float_of_int (Csr.nnz a));
  let values = Array.copy a.Csr.values in
  let row_ptr = a.Csr.row_ptr and col_idx = a.Csr.col_idx in
  let diag_pos = Array.make n (-1) in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      if col_idx.(p) = i then diag_pos.(i) <- p
    done;
    if diag_pos.(i) < 0 then raise (Zero_pivot i)
  done;
  (* Scatter workspace: position of column j in current row, or -1. *)
  let pos = Array.make n (-1) in
  eliminate ~row_ptr ~col_idx ~values ~diag_pos ~pos;
  { m = { a with Csr.values }; diag_pos; pos }

let refactorable t (a : Csr.t) = t.m.Csr.col_idx == a.Csr.col_idx

let refactor t (a : Csr.t) =
  if not (refactorable t a) then
    invalid_arg "Ilu0.refactor: pattern changed since factor";
  Telemetry.count "ilu0.refactors";
  let values = t.m.Csr.values in
  Array.blit a.Csr.values 0 values 0 (Array.length values);
  eliminate ~row_ptr:t.m.Csr.row_ptr ~col_idx:t.m.Csr.col_idx ~values
    ~diag_pos:t.diag_pos ~pos:t.pos

let apply_into t (r : Linalg.Kernel.vec) (out : Linalg.Kernel.vec) =
  let n = t.m.Csr.rows in
  if Linalg.Kernel.dim r <> n || Linalg.Kernel.dim out <> n then
    invalid_arg "Ilu0.apply_into: dimension mismatch";
  Telemetry.count "ilu0.applies";
  let row_ptr = t.m.Csr.row_ptr and col_idx = t.m.Csr.col_idx in
  let values = t.m.Csr.values in
  if out != r then Linalg.Kernel.blit r out;
  (* Forward solve with unit-diagonal L (strictly-lower entries). *)
  for i = 0 to n - 1 do
    let s = ref out.{i} in
    let p = ref row_ptr.(i) in
    while !p < row_ptr.(i + 1) && col_idx.(!p) < i do
      s := !s -. (values.(!p) *. out.{col_idx.(!p)});
      incr p
    done;
    out.{i} <- !s
  done;
  (* Backward solve with U (diagonal and above). *)
  for i = n - 1 downto 0 do
    let s = ref out.{i} in
    for p = t.diag_pos.(i) + 1 to row_ptr.(i + 1) - 1 do
      s := !s -. (values.(p) *. out.{col_idx.(p)})
    done;
    out.{i} <- !s /. values.(t.diag_pos.(i))
  done

let apply t r =
  let y = Linalg.Kernel.of_array r in
  apply_into t y y;
  Linalg.Kernel.to_array y
