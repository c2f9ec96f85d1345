type t = {
  rows : int;
  cols : int;
  mutable n : int;
  mutable row_index : int array;
  mutable col_index : int array;
  mutable values : float array;
}

let create ?(capacity = 16) rows cols =
  let capacity = max capacity 1 in
  {
    rows;
    cols;
    n = 0;
    row_index = Array.make capacity 0;
    col_index = Array.make capacity 0;
    values = Array.make capacity 0.0;
  }

let rows m = m.rows
let cols m = m.cols

let grow m =
  let capacity = 2 * Array.length m.values in
  let extend a fill_value =
    let b = Array.make capacity fill_value in
    Array.blit a 0 b 0 m.n;
    b
  in
  m.row_index <- extend m.row_index 0;
  m.col_index <- extend m.col_index 0;
  m.values <- extend m.values 0.0

let add m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Coo.add: index out of range";
  if v <> 0.0 then begin
    if m.n = Array.length m.values then grow m;
    m.row_index.(m.n) <- i;
    m.col_index.(m.n) <- j;
    m.values.(m.n) <- v;
    m.n <- m.n + 1
  end

let iter f m =
  for k = 0 to m.n - 1 do
    f m.row_index.(k) m.col_index.(k) m.values.(k)
  done

let of_triplets rows cols triplets =
  let m = create ~capacity:(max 16 (List.length triplets)) rows cols in
  List.iter (fun (i, j, v) -> add m i j v) triplets;
  m
