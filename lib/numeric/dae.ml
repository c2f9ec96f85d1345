type t = {
  size : int;
  source_into : float -> Linalg.Vec.t -> unit;
  jacobians : Linalg.Vec.t -> Sparse.Csr.t * Sparse.Csr.t;
  load :
    unit ->
    Linalg.Vec.t ->
    q:Linalg.Vec.t ->
    f:Linalg.Vec.t ->
    g:Sparse.Csr.t ->
    c:Sparse.Csr.t ->
    bool;
}

let linear ~g ~c ~source_into =
  {
    size = g.Sparse.Csr.rows;
    source_into;
    jacobians = (fun _ -> (g, c));
    load =
      (fun () ->
        (* The Jacobians are constant and [jacobians] always hands out
           the same two matrices, so their values hold as long as the
           caller still holds those instances. *)
        fun x ~q ~f ~g:g' ~c:c' ->
          Sparse.Csr.mul_vec_into g x f;
          Sparse.Csr.mul_vec_into c x q;
          g' == g && c' == c);
  }
