(* Warm-start store: converged MPDE surfaces (the flattened big_x grid
   state) retained per circuit and grid shape, handed out as Newton
   initial guesses for nearby tone pairs. Bittner & Brachtendorf's
   frequency-sweep observation — nearby tone pairs share solution
   structure — is exactly why a converged surface at (f_fast, fd) is a
   better start than the DC point for (f_fast, fd·(1+ε)).

   Only surfaces whose (digest, n1, n2) match the request exactly are
   candidates: the digest fixes the unknowns and (n1, n2) the grid, so
   a candidate has the right dimension (solve_mna additionally guards
   this). Among candidates the nearest in log-frequency distance
   wins. *)

type entry = {
  digest : string;
  n1 : int;
  n2 : int;
  f_fast : float;
  fd : float;
  surface : Linalg.Vec.t;
}

type t = {
  capacity : int;
  mutex : Mutex.t;
  mutable entries : entry list;  (* newest first *)
  mutable served : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Warm.create: capacity must be >= 1";
  { capacity; mutex = Mutex.create (); entries = []; served = 0 }

let locked t f = Mutex.protect t.mutex f

let take n l = List.filteri (fun i _ -> i < n) l

let offer t ~digest ~n1 ~n2 ~f_fast ~fd surface =
  locked t @@ fun () ->
  let same e =
    e.digest = digest && e.n1 = n1 && e.n2 = n2 && e.f_fast = f_fast
    && e.fd = fd
  in
  t.entries <-
    take t.capacity
      ({ digest; n1; n2; f_fast; fd; surface }
      :: List.filter (fun e -> not (same e)) t.entries)

let log_distance e ~f_fast ~fd =
  Float.abs (Float.log (f_fast /. e.f_fast))
  +. Float.abs (Float.log (fd /. e.fd))

let nearest t ~digest ~n1 ~n2 ~f_fast ~fd =
  locked t @@ fun () ->
  let candidates =
    List.filter (fun e -> e.digest = digest && e.n1 = n1 && e.n2 = n2) t.entries
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left
          (fun best e ->
            if log_distance e ~f_fast ~fd < log_distance best ~f_fast ~fd then e
            else best)
          first rest
      in
      t.served <- t.served + 1;
      Some best.surface

let served t = locked t @@ fun () -> t.served

let size t = locked t @@ fun () -> List.length t.entries
