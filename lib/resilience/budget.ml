type exhaustion =
  | Wall_clock of { limit : float; elapsed : float }
  | Newton_iterations of { limit : int; used : int }

exception Exhausted of exhaustion

type t = {
  started : float;
  wall_seconds : float option;
  max_newton : int option;
  mutable newton : int;
  parent : t option;
}

let make ?wall_seconds ?max_newton ?parent () =
  { started = Telemetry.Clock.wall (); wall_seconds; max_newton; newton = 0; parent }

let of_limits ?wall_seconds ?max_newton () =
  match (wall_seconds, max_newton) with
  | None, None -> None
  | _ -> Some (make ?wall_seconds ?max_newton ())

let elapsed b = Telemetry.Clock.wall () -. b.started

let rec exhausted b =
  let local =
    match b.wall_seconds with
    | Some limit when elapsed b > limit -> Some (Wall_clock { limit; elapsed = elapsed b })
    | _ -> (
        match b.max_newton with
        | Some limit when b.newton > limit -> Some (Newton_iterations { limit; used = b.newton })
        | _ -> None)
  in
  match local with
  | Some _ -> local
  | None -> ( match b.parent with Some p -> exhausted p | None -> None)

let check b = match exhausted b with Some e -> raise (Exhausted e) | None -> ()

let rec bump count b =
  b.newton <- b.newton + count;
  match b.parent with Some p -> bump count p | None -> ()

let tick_newton ?(count = 1) b =
  bump count b;
  check b

let pp_exhaustion ppf = function
  | Wall_clock { limit; elapsed } ->
      Format.fprintf ppf "wall-clock(limit=%.3fs elapsed=%.3fs)" limit elapsed
  | Newton_iterations { limit; used } ->
      Format.fprintf ppf "newton-iterations(limit=%d used=%d)" limit used

let exhaustion_to_string e = Format.asprintf "%a" pp_exhaustion e
