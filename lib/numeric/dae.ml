type t = {
  size : int;
  eval_f_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  eval_q_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  source_into : float -> Linalg.Vec.t -> unit;
  jacobians : Linalg.Vec.t -> Sparse.Csr.t * Sparse.Csr.t;
  jacobian_refresher : unit -> Linalg.Vec.t -> g:Sparse.Csr.t -> c:Sparse.Csr.t -> bool;
}

let linear ~g ~c ~source_into =
  {
    size = g.Sparse.Csr.rows;
    eval_f_into = (fun x out -> Sparse.Csr.mul_vec_into g x out);
    eval_q_into = (fun x out -> Sparse.Csr.mul_vec_into c x out);
    source_into;
    jacobians = (fun _ -> (g, c));
    jacobian_refresher =
      (fun () ->
        (* The Jacobians are constant and [jacobians] always hands out
           the same two matrices, so a refresh is a no-op as long as
           the caller still holds those instances. *)
        fun _x ~g:g' ~c:c' ->
          g' == g && c' == c);
  }
