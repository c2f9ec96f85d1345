(* Oracles shared by the test suites: tolerance comparisons, dense
   views of sparse matrices, plain-loop references of the vector
   kernels, and a parser for the registry's CSV exposition. Nothing
   outside test/ needs them. *)

let vec_approx_equal ?(tol = 1e-9) (x : Linalg.Vec.t) y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Float.abs (x.(i) -. y.(i)) > tol then ok := false
  done;
  !ok

let cvec_approx_equal ?(tol = 1e-9) (x : Linalg.Cvec.t) y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Complex.norm (Complex.sub x.(i) y.(i)) > tol then ok := false
  done;
  !ok

let mat_approx_equal ?(tol = 1e-9) (a : Linalg.Mat.t) (b : Linalg.Mat.t) =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  Array.iteri (fun k v -> if Float.abs (v -. b.data.(k)) > tol then ok := false) a.data;
  !ok

let csr_of_dense m =
  let rows, cols = Linalg.Mat.dims m in
  let coo = Sparse.Coo.create ~capacity:(rows * 4) rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = Linalg.Mat.get m i j in
      if Float.abs v > 0.0 then Sparse.Coo.add coo i j v
    done
  done;
  Sparse.Csr.of_coo coo

let csr_to_dense (m : Sparse.Csr.t) =
  let d = Linalg.Mat.create m.rows m.cols in
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Linalg.Mat.set d i m.col_idx.(k) m.values.(k)
    done
  done;
  d

(* ---------- Plain-loop kernel references ---------- *)

(* One element per iteration, checked accesses, sums from 0. left to
   right: the loops the unrolled, unchecked Linalg.Kernel loops must
   match bit for bit. *)
let ref_dot (x : float array) y =
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let ref_axpy a (x : float array) y =
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let ref_spmv (m : Sparse.Csr.t) (x : float array) =
  Array.init m.rows (fun i ->
      let s = ref 0.0 in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        s := !s +. (m.values.(k) *. x.(m.col_idx.(k)))
      done;
      !s)

(* ---------- Registry CSV (inverse of Registry.to_csv) ---------- *)

let parse_float s =
  match s with
  | "+Inf" | "Inf" -> Some infinity
  | "-Inf" -> Some neg_infinity
  | "NaN" -> Some nan
  | _ -> float_of_string_opt s

let split_csv_line line =
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let in_quotes = ref false in
  let i = ref 0 in
  let n = String.length line in
  while !i < n do
    let c = line.[!i] in
    if !in_quotes then begin
      if c = '"' then
        if !i + 1 < n && line.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          incr i
        end
        else in_quotes := false
      else Buffer.add_char buf c
    end
    else if c = '"' then in_quotes := true
    else if c = ',' then begin
      fields := Buffer.contents buf :: !fields;
      Buffer.clear buf
    end
    else Buffer.add_char buf c;
    incr i
  done;
  fields := Buffer.contents buf :: !fields;
  List.rev !fields

(* Quoted fields may span newlines, so records cannot be found with a
   plain line split: walk the text once, treating a newline as a record
   break only outside quotes. *)
let split_csv_records text =
  let records = ref [] in
  let buf = Buffer.create 64 in
  let in_quotes = ref false in
  String.iter
    (fun c ->
      if c = '"' then begin
        in_quotes := not !in_quotes;
        Buffer.add_char buf c
      end
      else if c = '\n' && not !in_quotes then begin
        records := Buffer.contents buf :: !records;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    text;
  if Buffer.length buf > 0 then records := Buffer.contents buf :: !records;
  List.rev !records

let parse_registry_csv text =
  match split_csv_records text with
  | [] -> []
  | header :: rows ->
      if String.trim header <> "name,labels,kind,value" then
        failwith ("bad CSV header: " ^ header);
      List.filter_map
        (fun row ->
          if String.trim row = "" then None
          else
            match split_csv_line row with
            | [ name; labels; kind; value ] ->
                let labels =
                  if labels = "" then []
                  else
                    String.split_on_char ';' labels
                    |> List.map (fun pair ->
                           match String.index_opt pair '=' with
                           | Some eq ->
                               ( String.sub pair 0 eq,
                                 String.sub pair (eq + 1)
                                   (String.length pair - eq - 1) )
                           | None -> failwith ("bad CSV label: " ^ row))
                in
                let kind =
                  match kind with
                  | "counter" -> Diagnostics.Registry.Counter
                  | "gauge" -> Diagnostics.Registry.Gauge
                  | k -> failwith ("bad CSV kind: " ^ k)
                in
                let value =
                  match parse_float value with
                  | Some v -> v
                  | None -> failwith ("bad CSV value: " ^ row)
                in
                Some { Diagnostics.Registry.name; labels; kind; value; help = None }
            | _ -> failwith ("bad CSV row: " ^ row))
        rows

(* The ["outcome"] field of a report's JSON line, e.g. ["converged"] or
   ["exhausted: newton-iterations(limit=3 used=4)"]. *)
let report_outcome (r : Resilience.Report.t) =
  match
    Option.bind
      (Telemetry.Json.member "outcome" (Telemetry.Json.parse (Resilience.Report.to_json_string r)))
      Telemetry.Json.str
  with
  | Some s -> s
  | None -> failwith "report JSON has no outcome"

(* The lattice coordinates (m, k), f = m·f1 + k·fs, that [Shear.phase]
   gives [f]: its phase is m at (t1, t2) = (1/f1, 0) and k at (0, 1/fs).
   @raise Mpde.Shear.Off_lattice as [phase] does. *)
let shear_lattice s f =
  let at ~t1 ~t2 = int_of_float (Float.round (Mpde.Shear.phase s ~t1 ~t2 f)) in
  (at ~t1:(Mpde.Shear.t1_period s) ~t2:0.0, at ~t1:0.0 ~t2:(Mpde.Shear.t2_period s))
