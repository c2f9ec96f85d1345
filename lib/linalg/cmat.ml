type t = { rows : int; cols : int; data : Complex.t array }

exception Singular of int

let create rows cols = { rows; cols; data = Array.make (rows * cols) Complex.zero }

let copy m = { m with data = Array.copy m.data }
let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let add_entry m i j v =
  let k = (i * m.cols) + j in
  m.data.(k) <- Complex.add m.data.(k) v

let swap_rows m i j =
  if i <> j then
    for k = 0 to m.cols - 1 do
      let tmp = get m i k in
      set m i k (get m j k);
      set m j k tmp
    done

let lu_solve a b =
  let n = a.rows in
  if a.cols <> n then invalid_arg "Cmat.lu_solve: matrix not square";
  if Array.length b <> n then invalid_arg "Cmat.lu_solve: rhs dimension mismatch";
  let m = copy a in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Complex.norm (get m i k) > Complex.norm (get m !piv k) then piv := i
    done;
    if !piv <> k then begin
      swap_rows m k !piv;
      let tmp = x.(k) in
      x.(k) <- x.(!piv);
      x.(!piv) <- tmp
    end;
    let pivot = get m k k in
    if Complex.norm pivot < 1e-300 then raise (Singular k);
    for i = k + 1 to n - 1 do
      let factor = Complex.div (get m i k) pivot in
      if factor <> Complex.zero then begin
        for j = k + 1 to n - 1 do
          set m i j (Complex.sub (get m i j) (Complex.mul factor (get m k j)))
        done;
        x.(i) <- Complex.sub x.(i) (Complex.mul factor x.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := Complex.sub !s (Complex.mul (get m i j) x.(j))
    done;
    x.(i) <- Complex.div !s (get m i i)
  done;
  x
