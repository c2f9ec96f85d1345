type fast = {
  eval_f_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  eval_q_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  source_into : float -> Linalg.Vec.t -> unit;
  jacobian_refresher :
    unit -> Linalg.Vec.t -> g:Sparse.Csr.t -> c:Sparse.Csr.t -> bool;
}

type t = {
  size : int;
  eval_f : Linalg.Vec.t -> Linalg.Vec.t;
  eval_q : Linalg.Vec.t -> Linalg.Vec.t;
  jacobians : Linalg.Vec.t -> Sparse.Csr.t * Sparse.Csr.t;
  source : float -> Linalg.Vec.t;
  fast : fast option;
}

let linear ~g ~c ~source =
  {
    size = g.Sparse.Csr.rows;
    eval_f = (fun x -> Sparse.Csr.mul_vec g x);
    eval_q = (fun x -> Sparse.Csr.mul_vec c x);
    jacobians = (fun _ -> (g, c));
    source;
    fast =
      Some
        {
          eval_f_into = (fun x out -> Sparse.Csr.mul_vec_into g x out);
          eval_q_into = (fun x out -> Sparse.Csr.mul_vec_into c x out);
          source_into = (fun t out -> Array.blit (source t) 0 out 0 (Array.length out));
          jacobian_refresher =
            (fun () ->
              (* The Jacobians are constant and [jacobians] always hands
                 out the same two matrices, so a refresh is a no-op as
                 long as the caller still holds those instances. *)
              fun _x ~g:g' ~c:c' ->
                g' == g && c' == c);
        };
  }
