(* The one JSON codec, Telemetry.Json: escaping and the non-finite
   float convention, lossless string decoding (\u escapes, surrogate
   pairs, \b and \f), the nesting-depth cap, round-trip properties, and
   the two outputs built on it that used to bypass it — checkpoint
   records carrying control bytes and [rfss sweep --format json]. *)

module J = Telemetry.Json

let parses_to name expected text =
  match J.parse text with
  | J.Str s -> Alcotest.(check string) name expected s
  | _ -> Alcotest.fail (name ^ ": not a string")
  | exception J.Parse_error e -> Alcotest.fail (name ^ ": " ^ e)

let rejects name text =
  match J.parse text with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail (name ^ ": accepted")

(* ---------- emitters ---------- *)

let test_quote () =
  Alcotest.(check string) "escapes" {|"q\" b\\ n\n t\t r\r \u0001 \u001f é"|}
    (J.quote "q\" b\\ n\n t\t r\r \001 \031 \xc3\xa9")

let test_float () =
  let f = J.float "%.6e" in
  Alcotest.(check (list string)) "finite uses the format, others are quoted"
    [ "1.500000e-03"; {|"nan"|}; {|"inf"|}; {|"-inf"|} ]
    (List.map f [ 1.5e-3; Float.nan; Float.infinity; Float.neg_infinity ]);
  Alcotest.(check string) "tree emitter keeps null and 1e999" "[null,1e999,-1e999,3]"
    (J.to_string (J.Arr [ J.Num Float.nan; J.Num Float.infinity; J.Num Float.neg_infinity; J.Num 3.0 ]))

(* The one intended byte change: a carriage return in a report string
   is written as \r, which the parser reads back. *)
let test_report_cr () =
  let r =
    {
      Resilience.Report.outcome = Resilience.Report.Failed "a\rb";
      strategy = None;
      stages = [];
      residual_trajectory = [||];
      residual_norm = 0.5;
      newton_iterations = 0;
      linear_iterations = 0;
      wall_seconds = 0.0;
      telemetry = None;
      sections = [];
    }
  in
  let s = Resilience.Report.to_json_string r in
  Alcotest.(check string) "report"
    {|{"outcome":"failed: a\rb","strategy":null,"newton_iterations":0,"linear_iterations":0,"residual_norm":5.000000e-01,"wall_seconds":0.000,"stages":[],"residual_trajectory":[]}|}
    s;
  Alcotest.(check (option string)) "reads back" (Some "failed: a\rb")
    (Option.bind (J.member "outcome" (J.parse s)) J.str)

(* ---------- decoding ---------- *)

let test_unicode () =
  parses_to "\\u to UTF-8, \\b and \\f kept" "caf\xc3\xa9 \b \012 x"
    {|"caf\u00e9 \b \f x"|};
  parses_to "control byte" "a\001b" {|"a\u0001b"|};
  parses_to "three-byte" "\xe2\x82\xac" {|"\u20AC"|};
  parses_to "surrogate pair" "\xf0\x9f\x98\x80" {|"\ud83d\ude00"|};
  rejects "bad hex" {|"\u00g0"|};
  rejects "truncated" {|"\u00"|};
  rejects "lone high surrogate" {|"\ud83d x"|};
  rejects "high surrogate then non-low" {|"\ud83dA"|};
  rejects "lone low surrogate" {|"\ude00"|}

let test_depth () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (match J.parse (nested 512) with
  | J.Arr _ -> ()
  | _ -> Alcotest.fail "512 levels: not an array"
  | exception J.Parse_error e -> Alcotest.fail ("512 levels: " ^ e));
  rejects "513 levels" (nested 513);
  rejects "513 objects" (String.concat "" (List.init 513 (fun _ -> {|{"a":|})))

(* ---------- properties ---------- *)

let prop_quote =
  QCheck.Test.make ~count:500 ~name:"json: parse (quote s) = Str s"
    QCheck.(make ~print:String.escaped Gen.(string_size (0 -- 40)))
    (fun s -> J.parse (J.quote s) = J.Str s)

let gen_tree =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.0) float in
  let key = string_size (0 -- 8) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun f -> J.Num f) finite;
               map (fun i -> J.Num (float_of_int i)) small_signed_int;
               map (fun s -> J.Str s) (string_size (0 -- 12));
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.Arr l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map (fun l -> J.Obj l)
                   (list_size (0 -- 4) (pair key (self (n / 4)))) );
             ])

let prop_tree =
  QCheck.Test.make ~count:300 ~name:"json: parse (to_string t) = t"
    (QCheck.make ~print:J.to_string gen_tree)
    (fun t -> J.parse (J.to_string t) = t)

(* ---------- checkpoint records with control bytes ---------- *)

let record : Engine.Checkpoint.record =
  {
    key = "0123456789abcdef";
    label = "mixer fd=1e3";
    engine = "mpde";
    f_fast = 1e6;
    fd = 1e3;
    status = "error";
    converged = false;
    newton = 7;
    residual = Float.infinity;
    h1 = Float.nan;
    thd = Float.nan;
    waveform_hash = "";
    attempts = 2;
    wall_seconds = 0.25;
    message = "bad \"quote\" \\ back\nnew\ttab";
    stage = Some "gmres";
    backtrace = None;
    report = Some "{\"outcome\":\"converged\",\"x\":1.5e-3}";
  }

(* A message with control bytes used to fail its digest on load: the
   parser turned \u0001 into '?' and dropped \f, so the record was
   discarded and a resumed sweep re-solved the job. *)
let test_checkpoint_control_bytes () =
  let path = Filename.temp_file "rfss_ckpt" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r = { record with message = "a\x01b\x0cc\x08 caf\xc3\xa9\r" } in
  Engine.Checkpoint.append (Engine.Checkpoint.create path) r;
  (* Reopening keeps only records whose digest checks out. *)
  match Engine.Checkpoint.find (Engine.Checkpoint.create path) ~key:r.key with
  | Some r' -> Alcotest.(check string) "message" r.message r'.message
  | None -> Alcotest.fail "record dropped on reload: digest mismatch"

(* ---------- rfss sweep --format json ---------- *)

let sweep_rows =
  [|
    {
      record with
      status = "ok";
      converged = true;
      residual = 3.25e-11;
      h1 = 0.125;
      thd = Float.nan;
      waveform_hash = "00ff00ff00ff00ff";
      message = "";
      stage = None;
    };
    { record with message = "bad \"x\" \\ y\nline\tz"; backtrace = Some "Raised at f" };
  |]

(* Captured from the CLI's emitter before it moved into the library. *)
let golden_sweep_wall =
  "[\n  {\"label\":\"mixer fd=1e3\",\"engine\":\"mpde\",\"fast\":1.000000000e+06,\"fd\":1.000000000e+03,\"status\":\"ok\",\"attempts\":2,\"converged\":true,\"newton\":7,\"residual\":3.250000e-11,\"h1\":1.250000e-01,\"thd\":\"nan\",\"waveform_hash\":\"00ff00ff00ff00ff\",\"wall_seconds\":0.250000},\n  {\"label\":\"mixer fd=1e3\",\"engine\":\"mpde\",\"fast\":1.000000000e+06,\"fd\":1.000000000e+03,\"status\":\"error\",\"attempts\":2,\"message\":\"bad \\\"x\\\" \\\\ y\\nline\\tz\",\"stage\":\"gmres\",\"backtrace\":\"Raised at f\",\"wall_seconds\":0.250000}\n]\n"

let golden_sweep_no_wall =
  "[\n  {\"label\":\"mixer fd=1e3\",\"engine\":\"mpde\",\"fast\":1.000000000e+06,\"fd\":1.000000000e+03,\"status\":\"ok\",\"attempts\":2,\"converged\":true,\"newton\":7,\"residual\":3.250000e-11,\"h1\":1.250000e-01,\"thd\":\"nan\",\"waveform_hash\":\"00ff00ff00ff00ff\"},\n  {\"label\":\"mixer fd=1e3\",\"engine\":\"mpde\",\"fast\":1.000000000e+06,\"fd\":1.000000000e+03,\"status\":\"error\",\"attempts\":2,\"message\":\"bad \\\"x\\\" \\\\ y\\nline\\tz\",\"stage\":\"gmres\",\"backtrace\":\"Raised at f\"}\n]\n"

let test_sweep_rows_golden () =
  Alcotest.(check string) "with wall" golden_sweep_wall
    (Engine.Checkpoint.rows_json ~no_wall:false sweep_rows);
  Alcotest.(check string) "no wall" golden_sweep_no_wall
    (Engine.Checkpoint.rows_json ~no_wall:true sweep_rows)

(* OCaml's %S wrote "café\x01" as "caf\195\169\001", which JSON rejects. *)
let test_sweep_rows_parse () =
  let message = "caf\xc3\xa9\x01" in
  let rows = [| { record with label = message; message } |] in
  match J.parse (Engine.Checkpoint.rows_json ~no_wall:true rows) with
  | J.Arr [ row ] ->
      Alcotest.(check (option string)) "label" (Some message)
        (Option.bind (J.member "label" row) J.str);
      Alcotest.(check (option string)) "message" (Some message)
        (Option.bind (J.member "message" row) J.str)
  | _ -> Alcotest.fail "expected a one-row array"
  | exception J.Parse_error e -> Alcotest.fail e

let () =
  Alcotest.run "json"
    [
      ( "json codec",
        [
          Alcotest.test_case "quote" `Quick test_quote;
          Alcotest.test_case "float" `Quick test_float;
          Alcotest.test_case "report carriage return" `Quick test_report_cr;
          Alcotest.test_case "unicode and control escapes" `Quick test_unicode;
          Alcotest.test_case "nesting depth cap" `Quick test_depth;
        ] );
      ( "json properties",
        List.map QCheck_alcotest.to_alcotest [ prop_quote; prop_tree ] );
      ( "json outputs",
        [
          Alcotest.test_case "checkpoint control bytes" `Quick
            test_checkpoint_control_bytes;
          Alcotest.test_case "sweep rows golden" `Quick test_sweep_rows_golden;
          Alcotest.test_case "sweep rows parse back" `Quick test_sweep_rows_parse;
        ] );
    ]
