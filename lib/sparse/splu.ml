(* Left-looking (Gilbert-Peierls) sparse LU closely following CSparse's
   cs_lu: for each column k, the sparse triangular solve x = L \ A(:,k)
   is computed over the topologically-ordered reachable set found by DFS
   on the graph of already-computed L columns; a pivot row is then chosen
   among the not-yet-pivotal entries of x. *)

type dyn = { mutable len : int; mutable idx : int array; mutable value : float array }

let dyn_create capacity =
  { len = 0; idx = Array.make (max capacity 4) 0; value = Array.make (max capacity 4) 0.0 }

let dyn_push d i v =
  if d.len = Array.length d.idx then begin
    let capacity = 2 * d.len in
    let idx = Array.make capacity 0 and value = Array.make capacity 0.0 in
    Array.blit d.idx 0 idx 0 d.len;
    Array.blit d.value 0 value 0 d.len;
    d.idx <- idx;
    d.value <- value
  end;
  d.idx.(d.len) <- i;
  d.value.(d.len) <- v;
  d.len <- d.len + 1

type t = {
  n : int;
  (* L in column-compressed form, unit diagonal stored explicitly first in
     each column; row indices are in final (pivotal) order. *)
  l_ptr : int array;
  l_idx : int array;
  l_val : float array;
  (* U in column-compressed form, diagonal stored last in each column. *)
  u_ptr : int array;
  u_idx : int array;
  u_val : float array;
  pinv : int array; (* pinv.(original_row) = pivotal position *)
  (* Numeric-refactorization support: the col_idx array of the factored
     matrix (compared physically, to detect pattern changes) and whether
     the stored L structure is complete. [factor] drops L entries whose
     value is exactly 0.0; a column with such a drop has an incomplete
     structure that [refactor] cannot replay. *)
  pattern : int array;
  complete : bool;
  (* Column access to the factored pattern, kept for [refactor]: column
     k's entries sit at original rows [a_row.(p)] and are read from
     [a.values.(a_src.(p))] for [p] in [a_ptr.(k) .. a_ptr.(k+1) - 1]. *)
  a_ptr : int array;
  a_row : int array;
  a_src : int array;
  (* Scratch of length [n]: [x] is all zeros between [refactor] calls,
     [y] is overwritten by every [solve_into]. *)
  x : float array;
  y : float array;
}

exception Singular of int

(* Depth-first search from node [j] over the graph whose node [r]'s
   out-edges are the row indices of L's column [pinv.(r)] (when row [r]
   is already pivotal). Pushes the postorder onto [stack] from position
   [top-1] downwards and returns the new top. *)
let dfs j ~l_ptr ~l_idx ~pinv ~marked ~mark_gen ~stack ~top ~work_stack ~pos_stack =
  let top = ref top in
  let head = ref 0 in
  work_stack.(0) <- j;
  while !head >= 0 do
    let j = work_stack.(!head) in
    let jnew = pinv.(j) in
    if marked.(j) <> mark_gen then begin
      marked.(j) <- mark_gen;
      pos_stack.(!head) <- (if jnew < 0 then 0 else l_ptr.(jnew))
    end;
    let p_end = if jnew < 0 then 0 else l_ptr.(jnew + 1) in
    let advanced = ref false in
    let p = ref pos_stack.(!head) in
    while (not !advanced) && !p < p_end do
      let i = l_idx.(!p) in
      if marked.(i) <> mark_gen then begin
        pos_stack.(!head) <- !p + 1;
        incr head;
        work_stack.(!head) <- i;
        advanced := true
      end
      else incr p
    done;
    if not !advanced then begin
      decr head;
      decr top;
      stack.(!top) <- j
    end
  done;
  !top

let factor ?(pivot_threshold = 0.1) (a : Csr.t) =
  let n = a.Csr.rows in
  if a.Csr.cols <> n then invalid_arg "Splu.factor: matrix not square";
  Telemetry.span "splu.factor" @@ fun () ->
  (* Column access: the CSC of A, i.e. the CSR of Aᵀ, as a gather map
     over [a.values] that [refactor] reuses. *)
  let acol_ptr, acol_idx, acol_src = Csr.transpose_map a in
  let values = a.Csr.values in
  let l = dyn_create (4 * Csr.nnz a) and u = dyn_create (4 * Csr.nnz a) in
  let l_ptr = Array.make (n + 1) 0 and u_ptr = Array.make (n + 1) 0 in
  let pinv = Array.make n (-1) in
  let x = Array.make n 0.0 in
  let stack = Array.make n 0 in
  let work_stack = Array.make n 0 and pos_stack = Array.make n 0 in
  let marked = Array.make n (-1) in
  let complete = ref true in
  (* [l.idx] holds *original* row indices during factorization; remapped to
     pivotal order at the end (as in cs_lu). But DFS needs L columns keyed
     by pivotal position with original-row out-edges, which is exactly what
     we store. *)
  for k = 0 to n - 1 do
    l_ptr.(k) <- l.len;
    u_ptr.(k) <- u.len;
    (* Reach: union of DFS from each structural entry of A(:,k). *)
    let mark_gen = k in
    let top = ref n in
    for p = acol_ptr.(k) to acol_ptr.(k + 1) - 1 do
      let i = acol_idx.(p) in
      if marked.(i) <> mark_gen then
        top :=
          dfs i ~l_ptr ~l_idx:l.idx ~pinv ~marked ~mark_gen ~stack ~top:!top
            ~work_stack ~pos_stack
    done;
    (* Clear x over the reach, scatter A(:,k). *)
    for p = !top to n - 1 do
      x.(stack.(p)) <- 0.0
    done;
    for p = acol_ptr.(k) to acol_ptr.(k + 1) - 1 do
      x.(acol_idx.(p)) <- values.(acol_src.(p))
    done;
    (* Sparse lower-triangular solve in topological order. *)
    for p = !top to n - 1 do
      let j = stack.(p) in
      let jnew = pinv.(j) in
      if jnew >= 0 then begin
        let xj = x.(j) in
        if xj <> 0.0 then
          (* Skip the unit diagonal stored first in column jnew. *)
          for q = l_ptr.(jnew) + 1 to l_ptr.(jnew + 1) - 1 do
            x.(l.idx.(q)) <- x.(l.idx.(q)) -. (l.value.(q) *. xj)
          done
      end
    done;
    (* Pivot choice among non-pivotal rows; push pivotal rows into U. *)
    let ipiv = ref (-1) and best = ref 0.0 in
    for p = !top to n - 1 do
      let i = stack.(p) in
      if pinv.(i) < 0 then begin
        let t = Float.abs x.(i) in
        if t > !best then begin
          best := t;
          ipiv := i
        end
      end
      else dyn_push u pinv.(i) x.(i)
    done;
    if !ipiv < 0 || !best <= 0.0 then raise (Singular k);
    (* Prefer the diagonal when acceptable under the threshold. *)
    if pinv.(k) < 0 && Float.abs x.(k) >= pivot_threshold *. !best then ipiv := k;
    let pivot = x.(!ipiv) in
    dyn_push u k pivot;
    pinv.(!ipiv) <- k;
    dyn_push l !ipiv 1.0;
    for p = !top to n - 1 do
      let i = stack.(p) in
      if pinv.(i) < 0 then
        if x.(i) <> 0.0 then dyn_push l i (x.(i) /. pivot)
        else complete := false;
      x.(i) <- 0.0
    done
  done;
  l_ptr.(n) <- l.len;
  u_ptr.(n) <- u.len;
  (* Remap L's row indices from original to pivotal order. *)
  for p = 0 to l.len - 1 do
    l.idx.(p) <- pinv.(l.idx.(p))
  done;
  Telemetry.count "splu.factors";
  Telemetry.gauge "splu.n" (float_of_int n);
  Telemetry.gauge "splu.lu_nnz" (float_of_int (l.len + u.len));
  Telemetry.gauge "splu.fill_ratio"
    (float_of_int (l.len + u.len) /. float_of_int (max 1 (Csr.nnz a)));
  {
    n;
    l_ptr;
    l_idx = Array.sub l.idx 0 l.len;
    l_val = Array.sub l.value 0 l.len;
    u_ptr;
    u_idx = Array.sub u.idx 0 u.len;
    u_val = Array.sub u.value 0 u.len;
    pinv;
    pattern = a.Csr.col_idx;
    complete = !complete;
    a_ptr = acol_ptr;
    a_row = acol_idx;
    a_src = acol_src;
    x;
    y = Array.make n 0.0;
  }

let refactorable f (a : Csr.t) = f.complete && f.pattern == a.Csr.col_idx

(* Unchecked access for the loops that replay and solve on a factor's
   own structure arrays: [factor] builds every index in them in range
   of the arrays they index. *)
external get : 'a array -> int -> 'a = "%array_unsafe_get"
external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Numeric-only refactorization: keep the symbolic structure (reach sets,
   fill pattern, pivot order) from [factor] and recompute only the
   values. The stored U entries of each column are exactly the pivotal
   reach nodes in the topological order the original triangular solve
   processed them, so replaying them sequentially reproduces the same
   float operations in the same order — a refactor of unchanged values
   is bitwise identical to the original factorization. With changed
   values the fixed pivot order is no longer threshold-optimal (same
   trade as any KLU-style refactor); callers using the result as an
   exact solver should watch {!Csr.residual_norm} or the pivot
   magnitudes. [a]'s values are read with bounds checks: only its
   pattern array is known to be the factored one. *)
let replay f (a : Csr.t) =
  let x = f.x and values = a.Csr.values in
  let l_ptr = f.l_ptr and l_idx = f.l_idx and l_val = f.l_val in
  let u_ptr = f.u_ptr and u_idx = f.u_idx and u_val = f.u_val in
  for k = 0 to f.n - 1 do
    for p = get f.a_ptr k to get f.a_ptr (k + 1) - 1 do
      set x (get f.pinv (get f.a_row p)) values.(get f.a_src p)
    done;
    (* Replay the sparse triangular solve over the stored U rows
       (topological order; diagonal excluded — it is stored last). *)
    let dpos = get u_ptr (k + 1) - 1 in
    for p = get u_ptr k to dpos - 1 do
      let j = get u_idx p in
      let xj = get x j in
      set u_val p xj;
      if xj <> 0.0 then
        for q = get l_ptr j + 1 to get l_ptr (j + 1) - 1 do
          let i = get l_idx q in
          set x i (get x i -. (get l_val q *. xj))
        done
    done;
    let pivot = get x k in
    if pivot = 0.0 || not (Float.is_finite pivot) then begin
      (* Leave the scratch clean for the next call. *)
      Array.fill x 0 f.n 0.0;
      raise (Singular k)
    end;
    set u_val dpos pivot;
    for q = get l_ptr k + 1 to get l_ptr (k + 1) - 1 do
      set l_val q (get x (get l_idx q) /. pivot)
    done;
    (* Every position written above is covered by the column's stored
       U/L entries, so this restores all-zeros. *)
    for p = get u_ptr k to dpos do
      set x (get u_idx p) 0.0
    done;
    set x k 0.0;
    for q = get l_ptr k to get l_ptr (k + 1) - 1 do
      set x (get l_idx q) 0.0
    done
  done

let refactor f (a : Csr.t) =
  if not (refactorable f a) then
    invalid_arg "Splu.refactor: pattern changed or structure incomplete";
  Telemetry.count "splu.refactors";
  Telemetry.span_app "splu.refactor" replay f a

(* One place for the refactor-or-factor decision: replay [prev] on
   [a]'s values when its frozen structure allows, and factor afresh
   when it does not or when the frozen pivot order hits a zero pivot
   (a fresh factor is free to pivot differently). *)
let refactor_or_factor prev a =
  match prev with
  | Some f when refactorable f a -> (
      try
        refactor f a;
        f
      with Singular _ -> factor a)
  | _ -> factor a

(* x = A⁻¹ b for [b] in the scratch [y] on entry, left there on exit:
   [y] is permuted to P b, then the two triangular solves run in
   place. *)
let solve_scratch f b =
  let n = f.n and y = f.y in
  let l_ptr = f.l_ptr and l_idx = f.l_idx and l_val = f.l_val in
  let u_ptr = f.u_ptr and u_idx = f.u_idx and u_val = f.u_val in
  (* y = P b *)
  for i = 0 to n - 1 do
    set y (get f.pinv i) (get b i)
  done;
  (* Forward: L y' = y, columns of L (unit diagonal first). *)
  for j = 0 to n - 1 do
    let yj = get y j in
    if yj <> 0.0 then
      for p = get l_ptr j + 1 to get l_ptr (j + 1) - 1 do
        let i = get l_idx p in
        set y i (get y i -. (get l_val p *. yj))
      done
  done;
  (* Backward: U x = y', diagonal stored last in each column. *)
  for j = n - 1 downto 0 do
    let dpos = get u_ptr (j + 1) - 1 in
    let xj = get y j /. get u_val dpos in
    set y j xj;
    if xj <> 0.0 then
      for p = get u_ptr j to dpos - 1 do
        let i = get u_idx p in
        set y i (get y i -. (get u_val p *. xj))
      done
  done

let solve_into f b out =
  let n = f.n in
  if Array.length b <> n || Array.length out <> n then
    invalid_arg "Splu.solve_into: dimension mismatch";
  Telemetry.count "splu.solves";
  solve_scratch f b;
  Array.blit f.y 0 out 0 n

let solve_columns f cols =
  let n = f.n in
  for j = 0 to Array.length cols - 1 do
    if Array.length cols.(j) <> n then invalid_arg "Splu.solve_columns: dimension mismatch"
  done;
  Telemetry.count ~by:(Array.length cols) "splu.solves";
  for j = 0 to Array.length cols - 1 do
    let col = get cols j in
    solve_scratch f col;
    Array.blit f.y 0 col 0 n
  done

let solve f b =
  let x = Array.make f.n 0.0 in
  solve_into f b x;
  x
