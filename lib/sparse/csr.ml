type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let nnz m = m.row_ptr.(m.rows)

(* Count-sort triplets by row, then sort each row segment by column and
   sum duplicates. *)
let of_coo coo =
  let rows = Coo.rows coo and cols = Coo.cols coo in
  let counts = Array.make (rows + 1) 0 in
  Coo.iter (fun i _ _ -> counts.(i + 1) <- counts.(i + 1) + 1) coo;
  for i = 1 to rows do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  let n = counts.(rows) in
  let tmp_col = Array.make n 0 and tmp_val = Array.make n 0.0 in
  let cursor = Array.copy counts in
  Coo.iter
    (fun i j v ->
      let k = cursor.(i) in
      tmp_col.(k) <- j;
      tmp_val.(k) <- v;
      cursor.(i) <- k + 1)
    coo;
  (* Sort each row segment by column index (insertion sort: rows are short). *)
  let row_ptr = Array.make (rows + 1) 0 in
  let col_idx = Array.make n 0 and values = Array.make n 0.0 in
  let out = ref 0 in
  for i = 0 to rows - 1 do
    row_ptr.(i) <- !out;
    let lo = counts.(i) and hi = cursor.(i) in
    for k = lo + 1 to hi - 1 do
      let cj = tmp_col.(k) and cv = tmp_val.(k) in
      let p = ref (k - 1) in
      while !p >= lo && tmp_col.(!p) > cj do
        tmp_col.(!p + 1) <- tmp_col.(!p);
        tmp_val.(!p + 1) <- tmp_val.(!p);
        decr p
      done;
      tmp_col.(!p + 1) <- cj;
      tmp_val.(!p + 1) <- cv
    done;
    (* Merge duplicates. *)
    let k = ref lo in
    while !k < hi do
      let j = tmp_col.(!k) in
      let s = ref 0.0 in
      while !k < hi && tmp_col.(!k) = j do
        s := !s +. tmp_val.(!k);
        incr k
      done;
      col_idx.(!out) <- j;
      values.(!out) <- !s;
      incr out
    done
  done;
  row_ptr.(rows) <- !out;
  if !out = n then { rows; cols; row_ptr; col_idx; values }
  else
    {
      rows;
      cols;
      row_ptr;
      col_idx = Array.sub col_idx 0 !out;
      values = Array.sub values 0 !out;
    }

let slot m i j =
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_idx.(mid) in
    if c = j then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Csr.get: index out of range";
  let k = slot m i j in
  if k < 0 then 0.0 else m.values.(k)

let mul_vec_into m x y =
  if Array.length x <> m.cols || Array.length y <> m.rows then
    invalid_arg "Csr.mul_vec_into: dimension mismatch";
  Linalg.Kernel.spmv ~rows:m.rows ~row_ptr:m.row_ptr ~col_idx:m.col_idx ~values:m.values x y

let mul_vec m x =
  let y = Array.make m.rows 0.0 in
  mul_vec_into m x y;
  y

(* Kept for rfssbench/probe.ml only; goes when ROADMAP item 15 lands. *)
let mul_vec_ba_into = mul_vec_into

let tmul_vec m x =
  if Array.length x <> m.rows then invalid_arg "Csr.tmul_vec: dimension mismatch";
  let y = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        let j = m.col_idx.(k) in
        y.(j) <- y.(j) +. (m.values.(k) *. xi)
      done
  done;
  y

let transpose_map m =
  let n = nnz m in
  let row_ptr = Array.make (m.cols + 1) 0 in
  for k = 0 to n - 1 do
    row_ptr.(m.col_idx.(k) + 1) <- row_ptr.(m.col_idx.(k) + 1) + 1
  done;
  for j = 1 to m.cols do
    row_ptr.(j) <- row_ptr.(j) + row_ptr.(j - 1)
  done;
  let col_idx = Array.make n 0 and src = Array.make n 0 in
  let cursor = Array.sub row_ptr 0 m.cols in
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let j = m.col_idx.(k) in
      let p = cursor.(j) in
      col_idx.(p) <- i;
      src.(p) <- k;
      cursor.(j) <- p + 1
    done
  done;
  (row_ptr, col_idx, src)

let diag m =
  let d = Array.make (min m.rows m.cols) 0.0 in
  for i = 0 to Array.length d - 1 do
    d.(i) <- get m i i
  done;
  d

let scale s m = { m with values = Array.map (fun v -> s *. v) m.values }

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Csr.add: dimension mismatch";
  let coo = Coo.create ~capacity:(nnz a + nnz b) a.rows a.cols in
  for i = 0 to a.rows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      Coo.add coo i a.col_idx.(k) a.values.(k)
    done;
    for k = b.row_ptr.(i) to b.row_ptr.(i + 1) - 1 do
      Coo.add coo i b.col_idx.(k) b.values.(k)
    done
  done;
  of_coo coo

let identity n =
  {
    rows = n;
    cols = n;
    row_ptr = Array.init (n + 1) (fun i -> i);
    col_idx = Array.init n (fun i -> i);
    values = Array.make n 1.0;
  }

let iter_row m i f =
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done
