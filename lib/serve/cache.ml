(* Bounded LRU over canonical job keys. Values are the exact bytes of
   the stored "result" line — replaying bytes rather than re-rendering
   a record is what makes cache hits verifiably identical to the first
   response. Mutex-guarded: the server domain probes on submit, worker
   domains fill on completion. *)

type t = {
  capacity : int;
  mutex : Mutex.t;
  table : (string, string) Hashtbl.t;
  mutable order : string list;  (* MRU first; length = table size *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    capacity;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    order = [];
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f = Mutex.protect t.mutex f

let promote t key = t.order <- key :: List.filter (fun k -> k <> key) t.order

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some payload ->
      t.hits <- t.hits + 1;
      promote t key;
      Some payload
  | None ->
      t.misses <- t.misses + 1;
      None

let add t key payload =
  locked t @@ fun () ->
  Hashtbl.replace t.table key payload;
  promote t key;
  let rec trim = function
    | [] -> []
    | kept when List.length kept <= t.capacity -> kept
    | kept -> (
        (* Drop the tail (LRU) entry. *)
        match List.rev kept with
        | victim :: rest ->
            Hashtbl.remove t.table victim;
            t.evictions <- t.evictions + 1;
            trim (List.rev rest)
        | [] -> [])
  in
  t.order <- trim t.order

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
  }

let keys t = locked t @@ fun () -> t.order
