type exhaustion =
  | Wall_clock of { limit : float; elapsed : float }
  | Newton_iterations of { limit : int; used : int }
  | Linear_iterations of { limit : int; used : int }
  | Continuation_steps of { limit : int; used : int }

exception Exhausted of exhaustion

type t = {
  started : float;
  wall_seconds : float option;
  max_newton : int option;
  max_linear : int option;
  max_continuation : int option;
  mutable newton : int;
  mutable linear : int;
  mutable continuation : int;
  parent : t option;
}

let make ?wall_seconds ?max_newton ?max_linear ?max_continuation ?parent () =
  {
    started = Telemetry.Clock.wall ();
    wall_seconds;
    max_newton;
    max_linear;
    max_continuation;
    newton = 0;
    linear = 0;
    continuation = 0;
    parent;
  }

let of_limits ?wall_seconds ?max_newton () =
  match (wall_seconds, max_newton) with
  | None, None -> None
  | _ -> Some (make ?wall_seconds ?max_newton ())

let elapsed b = Telemetry.Clock.wall () -. b.started

let over_cap used = function Some limit when used > limit -> Some limit | _ -> None

let rec exhausted b =
  let local =
    match b.wall_seconds with
    | Some limit when elapsed b > limit -> Some (Wall_clock { limit; elapsed = elapsed b })
    | _ -> (
        match over_cap b.newton b.max_newton with
        | Some limit -> Some (Newton_iterations { limit; used = b.newton })
        | None -> (
            match over_cap b.linear b.max_linear with
            | Some limit -> Some (Linear_iterations { limit; used = b.linear })
            | None -> (
                match over_cap b.continuation b.max_continuation with
                | Some limit -> Some (Continuation_steps { limit; used = b.continuation })
                | None -> None)))
  in
  match local with
  | Some _ -> local
  | None -> ( match b.parent with Some p -> exhausted p | None -> None)

let check b = match exhausted b with Some e -> raise (Exhausted e) | None -> ()

let rec bump f b =
  f b;
  match b.parent with Some p -> bump f p | None -> ()

let tick_newton ?(count = 1) b =
  bump (fun b -> b.newton <- b.newton + count) b;
  check b

let tick_linear ?(count = 1) b =
  bump (fun b -> b.linear <- b.linear + count) b;
  check b

let tick_continuation ?(count = 1) b =
  bump (fun b -> b.continuation <- b.continuation + count) b;
  check b

let newton_used b = b.newton

let linear_used b = b.linear

let continuation_used b = b.continuation

let rec remaining_seconds b =
  let local = Option.map (fun limit -> limit -. elapsed b) b.wall_seconds in
  let up = match b.parent with Some p -> remaining_seconds p | None -> None in
  match (local, up) with
  | Some a, Some b -> Some (Float.min a b)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

let pp_exhaustion ppf = function
  | Wall_clock { limit; elapsed } ->
      Format.fprintf ppf "wall-clock(limit=%.3fs elapsed=%.3fs)" limit elapsed
  | Newton_iterations { limit; used } ->
      Format.fprintf ppf "newton-iterations(limit=%d used=%d)" limit used
  | Linear_iterations { limit; used } ->
      Format.fprintf ppf "linear-iterations(limit=%d used=%d)" limit used
  | Continuation_steps { limit; used } ->
      Format.fprintf ppf "continuation-steps(limit=%d used=%d)" limit used

let exhaustion_to_string e = Format.asprintf "%a" pp_exhaustion e
