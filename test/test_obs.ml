(* Unit tests for the observability layer: registry semantics, the
   zero-cost disabled path, atomic updates under Parallel.map domain
   fan-out, span trees (with GC attribution and domain ids), the
   hand-rolled JSON emitter/parser, the Chrome-trace exporter, the
   report differ behind bench-diff, and atomic report writes.

   Metrics and tracing are process-wide, so every case starts and ends
   from a clean disabled state; metric names are unique per case to keep
   cases independent of execution order. *)

let case = Helpers.case

let clean () =
  Obs.Report.disable_all ();
  Obs.Report.reset_all ()

let counter_value name =
  List.assoc name (Obs.Metrics.snapshot ()).Obs.Metrics.counters

let gauge_value name = List.assoc name (Obs.Metrics.snapshot ()).Obs.Metrics.gauges

let histogram_summary name =
  List.assoc name (Obs.Metrics.snapshot ()).Obs.Metrics.histograms

(* ---------- Metrics ---------- *)

let metrics_disabled_noop () =
  clean ();
  let c = Obs.Metrics.counter "t.noop.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge "t.noop.gauge" in
  Obs.Metrics.set g 3.5;
  Alcotest.(check bool) "gauge untouched" true (Obs.Metrics.gauge_value g = 0.0);
  let h = Obs.Metrics.histogram "t.noop.hist" in
  Obs.Metrics.observe h 1.0;
  Alcotest.(check int) "histogram untouched" 0
    (histogram_summary "t.noop.hist").Obs.Metrics.count;
  Alcotest.(check bool) "not enabled" false (Obs.Metrics.enabled ())

let metrics_counter_roundtrip () =
  clean ();
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "t.rt.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr c;
  Obs.Metrics.add c 5;
  Alcotest.(check int) "handle value" 7 (Obs.Metrics.counter_value c);
  (* Registering the same name again must return the same cell. *)
  let c' = Obs.Metrics.counter "t.rt.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "same cell" 8 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "snapshot agrees" 8 (counter_value "t.rt.counter");
  clean ()

let metrics_gauge_and_histogram () =
  clean ();
  Obs.Metrics.enable ();
  let g = Obs.Metrics.gauge "t.gh.gauge" in
  Obs.Metrics.set g 1.0;
  Obs.Metrics.set g 2.5;
  Alcotest.(check bool) "last write wins" true (gauge_value "t.gh.gauge" = 2.5);
  let h = Obs.Metrics.histogram "t.gh.hist" in
  Obs.Metrics.observe h 3.0;
  Obs.Metrics.observe h 1.0;
  Obs.Metrics.observe h 2.0;
  let s = histogram_summary "t.gh.hist" in
  Alcotest.(check int) "count" 3 s.Obs.Metrics.count;
  Alcotest.(check bool) "sum" true (Helpers.close_enough s.Obs.Metrics.sum 6.0);
  Alcotest.(check bool) "min" true (s.Obs.Metrics.min = 1.0);
  Alcotest.(check bool) "max" true (s.Obs.Metrics.max = 3.0);
  clean ()

let metrics_parallel_counters () =
  (* The whole point of the Atomic cells: increments from the domains
     spawned by Parallel.map must not lose updates. *)
  clean ();
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "t.par.counter" in
  let h = Obs.Metrics.histogram "t.par.hist" in
  let xs = List.init 400 Fun.id in
  let ys =
    Util.Parallel.map ~jobs:4
      (fun i ->
        Obs.Metrics.incr c;
        Obs.Metrics.observe h 1.0;
        i)
      xs
  in
  Alcotest.(check (list int)) "map result intact" xs ys;
  Alcotest.(check int) "no lost counter updates" 400 (Obs.Metrics.counter_value c);
  let s = histogram_summary "t.par.hist" in
  Alcotest.(check int) "no lost observations" 400 s.Obs.Metrics.count;
  Alcotest.(check bool) "sum exact" true (Helpers.close_enough s.Obs.Metrics.sum 400.0);
  clean ()

let metrics_reset_keeps_names () =
  clean ();
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "t.reset.counter" in
  Obs.Metrics.add c 9;
  Obs.Metrics.reset ();
  Alcotest.(check int) "zeroed" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "still registered" true
    (List.mem_assoc "t.reset.counter" (Obs.Metrics.snapshot ()).Obs.Metrics.counters);
  clean ()

let metrics_time_passthrough () =
  clean ();
  let h = Obs.Metrics.histogram "t.time.hist" in
  Alcotest.(check int) "disabled returns value" 41
    (Obs.Metrics.time h (fun () -> 41));
  Alcotest.(check int) "disabled records nothing" 0
    (histogram_summary "t.time.hist").Obs.Metrics.count;
  Obs.Metrics.enable ();
  Alcotest.(check int) "enabled returns value" 42 (Obs.Metrics.time h (fun () -> 42));
  let s = histogram_summary "t.time.hist" in
  Alcotest.(check int) "enabled records one duration" 1 s.Obs.Metrics.count;
  Alcotest.(check bool) "duration non-negative" true (s.Obs.Metrics.sum >= 0.0);
  clean ()

(* ---------- Trace ---------- *)

let trace_disabled_passthrough () =
  clean ();
  Alcotest.(check int) "value through" 7 (Obs.Trace.with_span "t.off" (fun () -> 7));
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.Trace.roots ()))

let trace_nesting_and_attrs () =
  clean ();
  Obs.Trace.enable ();
  let v =
    Obs.Trace.with_span ~attrs:[ ("k", "outer") ] "outer" (fun () ->
        let x = Obs.Trace.with_span "inner" (fun () -> 21) in
        Obs.Trace.add_attr "result" (string_of_int x);
        2 * x)
  in
  Alcotest.(check int) "value through" 42 v;
  (match Obs.Trace.roots () with
  | [ root ] ->
      Alcotest.(check string) "root name" "outer" root.Obs.Trace.name;
      Alcotest.(check bool) "duration non-negative" true (root.Obs.Trace.duration >= 0.0);
      Alcotest.(check (list (pair string string)))
        "attrs in order"
        [ ("k", "outer"); ("result", "21") ]
        root.Obs.Trace.attrs;
      (match root.Obs.Trace.children with
      | [ child ] ->
          Alcotest.(check string) "child name" "inner" child.Obs.Trace.name;
          Alcotest.(check (list (pair string string))) "child attrs" []
            child.Obs.Trace.attrs
      | l -> Alcotest.failf "expected one child, got %d" (List.length l))
  | l -> Alcotest.failf "expected one root, got %d" (List.length l));
  clean ()

let trace_records_on_raise () =
  clean ();
  Obs.Trace.enable ();
  (try Obs.Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check (list string)) "span survived the raise" [ "boom" ]
    (List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.roots ()));
  clean ()

let trace_sequential_roots () =
  clean ();
  Obs.Trace.enable ();
  Obs.Trace.with_span "first" (fun () -> ());
  Obs.Trace.with_span "second" (fun () -> ());
  Alcotest.(check (list string)) "oldest first" [ "first"; "second" ]
    (List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.roots ()));
  (* Monotonic clock: later spans never start earlier. *)
  (match Obs.Trace.roots () with
  | [ a; b ] ->
      Alcotest.(check bool) "monotonic starts" true
        (b.Obs.Trace.start >= a.Obs.Trace.start)
  | _ -> Alcotest.fail "expected two roots");
  clean ()

let trace_gc_and_domain_attribution () =
  clean ();
  Obs.Trace.enable ();
  let sink = ref [] in
  Obs.Trace.with_span "alloc" (fun () ->
      (* Allocate enough boxed data that the minor-words delta must be
         visibly positive. *)
      for i = 0 to 10_000 do
        sink := (i, float_of_int i) :: !sink
      done);
  ignore (Sys.opaque_identity !sink);
  (match Obs.Trace.roots () with
  | [ sp ] ->
      Alcotest.(check int) "ran on this domain"
        (Domain.self () :> int)
        sp.Obs.Trace.domain;
      Alcotest.(check bool) "minor words attributed" true
        (sp.Obs.Trace.gc.Obs.Trace.minor_words > 0.0);
      Alcotest.(check bool) "collection counts non-negative" true
        (sp.Obs.Trace.gc.Obs.Trace.minor_collections >= 0
        && sp.Obs.Trace.gc.Obs.Trace.major_collections >= 0)
  | l -> Alcotest.failf "expected one root, got %d" (List.length l));
  clean ()

let trace_parallel_worker_lanes () =
  (* Parallel.map must wrap each worker domain in a parallel.worker root
     span so the Chrome exporter can give every domain its own lane. *)
  clean ();
  Obs.Report.enable_all ();
  let xs = List.init 16 Fun.id in
  let ys = Util.Parallel.map ~jobs:4 (fun i -> i * 2) xs in
  Alcotest.(check (list int)) "map intact" (List.map (fun i -> i * 2) xs) ys;
  let workers =
    List.filter (fun s -> s.Obs.Trace.name = "parallel.worker") (Obs.Trace.roots ())
  in
  Alcotest.(check int) "one span per worker" 4 (List.length workers);
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.Obs.Trace.domain) workers)
  in
  Alcotest.(check int) "distinct domains" 4 (List.length domains);
  clean ()

(* ---------- Json ---------- *)

let json_scalars () =
  Alcotest.(check string) "null" "null" (Obs.Json.to_string Obs.Json.Null);
  Alcotest.(check string) "bool" "true" (Obs.Json.to_string (Obs.Json.Bool true));
  Alcotest.(check string) "int" "-3" (Obs.Json.to_string (Obs.Json.Int (-3)));
  Alcotest.(check string) "float" "2.5" (Obs.Json.to_string (Obs.Json.Float 2.5));
  Alcotest.(check string) "integral float" "4.0"
    (Obs.Json.to_string (Obs.Json.Float 4.0));
  Alcotest.(check string) "nan is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let json_string_escaping () =
  Alcotest.(check string) "quotes/backslash/newline"
    {|"a\"b\\c\nd"|}
    (Obs.Json.to_string (Obs.Json.String "a\"b\\c\nd"));
  Alcotest.(check string) "control char" {|"\u0001"|}
    (Obs.Json.to_string (Obs.Json.String "\001"))

let json_compound () =
  let v =
    Obs.Json.Obj
      [
        ("xs", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ]);
        ("empty", Obs.Json.Obj []);
      ]
  in
  Alcotest.(check string) "compact" {|{"xs":[1,2],"empty":{}}|}
    (Obs.Json.to_string v);
  (* The pretty renderer must stay parseable and keep the same tokens. *)
  let pretty = Obs.Json.to_string_pretty v in
  let strip s =
    String.to_seq s
    |> Seq.filter (fun c -> c <> ' ' && c <> '\n')
    |> String.of_seq
  in
  Alcotest.(check string) "pretty has same tokens" (Obs.Json.to_string v)
    (strip pretty)

(* ---------- Json parsing ---------- *)

let json_parse_scalars () =
  let ok v s =
    match Obs.Json.of_string s with
    | Ok got -> Alcotest.(check bool) (s ^ " parses") true (got = v)
    | Error m -> Alcotest.failf "%s: %s" s m
  in
  ok Obs.Json.Null "null";
  ok (Obs.Json.Bool true) "  true ";
  ok (Obs.Json.Bool false) "false";
  ok (Obs.Json.Int (-3)) "-3";
  ok (Obs.Json.Float 2.5) "2.5";
  ok (Obs.Json.Float 4.0) "4.0";
  ok (Obs.Json.Float 1e-3) "1e-3";
  ok (Obs.Json.String "a\"b\\c\nd") {|"a\"b\\c\nd"|};
  ok (Obs.Json.String "\001") {|""|};
  ok (Obs.Json.String "A") {|"A"|};
  ok (Obs.Json.Obj [ ("xs", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ]) ])
    {| {"xs": [1, 2]} |};
  ok (Obs.Json.List []) "[]";
  ok (Obs.Json.Obj []) "{}"

let json_parse_errors () =
  let bad s =
    match Obs.Json.of_string s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error _ -> ()
  in
  List.iter bad
    [ ""; "{"; "["; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "{\"a\" 1}"; "\"unterminated";
      "nulll"; "[1}" ]

let json_roundtrip_span_trees =
  (* The report pipeline in miniature: random span trees, serialised with
     the emitter, must parse back to the identical Json value — both
     compact and pretty-printed. *)
  let open QCheck in
  let gen_byte_string =
    Gen.string_size ~gen:(Gen.map Char.chr (Gen.int_range 0 255)) (Gen.int_bound 10)
  in
  let gen_float = Gen.map (fun i -> float_of_int i /. 64.0) (Gen.int_range 0 (1 lsl 20)) in
  let gen_gc =
    let open Gen in
    let* minor = map float_of_int (int_bound 100_000) in
    let* promoted = map float_of_int (int_bound 1_000) in
    let* major = map float_of_int (int_bound 10_000) in
    let* minc = int_bound 5 in
    let+ majc = int_bound 2 in
    {
      Obs.Trace.minor_words = minor;
      promoted_words = promoted;
      major_words = major;
      minor_collections = minc;
      major_collections = majc;
    }
  in
  let gen_span =
    let open Gen in
    fix
      (fun self depth ->
        let* name = gen_byte_string in
        let* start = gen_float in
        let* duration = gen_float in
        let* domain = int_bound 8 in
        let* gc = gen_gc in
        let* attrs = list_size (int_bound 3) (pair gen_byte_string gen_byte_string) in
        let+ children =
          if depth = 0 then return [] else list_size (int_bound 2) (self (depth - 1))
        in
        { Obs.Trace.name; start; duration; domain; gc; attrs; children })
      2
  in
  let prop sp =
    let doc = Obs.Json.List [ Obs.Trace.span_json sp ] in
    let compact = Obs.Json.of_string (Obs.Json.to_string doc) in
    let pretty = Obs.Json.of_string (Obs.Json.to_string_pretty doc) in
    compact = Ok doc && pretty = Ok doc
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"emit/parse round-trip of span trees"
       (QCheck.make gen_span) prop)

(* ---------- quantile histograms ---------- *)

let bucket_growth = Float.pow 2.0 0.25

(* Positive samples spanning ~1e-6 .. ~1e3: well above the underflow
   threshold and well inside the regular buckets, where the one-bucket
   accuracy contract holds. *)
let gen_samples ~min_size =
  QCheck.Gen.(
    list_size (int_range min_size 250)
      (map
         (fun i -> 1e-6 *. Float.pow 2.0 (float_of_int i /. 50.0))
         (int_range 0 1500)))

(* Same rank convention as Metrics.quantile: the smallest sample with at
   least [ceil (q * n)] samples at or below it. *)
let exact_quantile vs q =
  let sorted = List.sort compare vs in
  let n = List.length sorted in
  let rank =
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    if r < 1 then 1 else if r > n then n else r
  in
  List.nth sorted (rank - 1)

let hist_quantile_within_bucket =
  let prop vs =
    let s = Obs.Metrics.summary_of_values (Array.of_list vs) in
    List.for_all
      (fun q ->
        let est = Obs.Metrics.quantile s q in
        let exact = exact_quantile vs q in
        (* The estimate is the geometric midpoint of the exact sample's
           bucket, so it sits within half a bucket (factor 2^(1/8)); one
           full bucket width leaves headroom for boundary rounding. *)
        est <= exact *. bucket_growth *. (1.0 +. 1e-9)
        && est >= exact /. bucket_growth /. (1.0 +. 1e-9))
      [ 0.5; 0.9; 0.95; 0.99 ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"bucketed p50/p90/p95/p99 within one bucket of exact"
       (QCheck.make (gen_samples ~min_size:1))
       prop)

let hist_merge_associative =
  let gen =
    QCheck.Gen.triple (gen_samples ~min_size:0) (gen_samples ~min_size:0)
      (gen_samples ~min_size:0)
  in
  let prop (a, b, c) =
    let open Obs.Metrics in
    let s l = summary_of_values (Array.of_list l) in
    let sa = s a and sb = s b and sc = s c in
    let l = merge (merge sa sb) sc in
    let r = merge sa (merge sb sc) in
    let whole = s (a @ b @ c) in
    let eqf x y = x = y || (Float.is_nan x && Float.is_nan y) in
    let close x y =
      eqf x y || Float.abs (x -. y) <= 1e-9 *. (Float.abs x +. 1.0)
    in
    l.count = r.count
    && l.count = whole.count
    && l.buckets = r.buckets
    && l.buckets = whole.buckets
    && eqf l.min r.min && eqf l.min whole.min
    && eqf l.max r.max && eqf l.max whole.max
    (* sums agree up to float reassociation *)
    && close l.sum r.sum
    && close l.sum whole.sum
    (* empty is an identity on both sides *)
    && merge empty_summary l = l
    && merge l empty_summary = l
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"merge is associative and agrees with the pooled summary"
       (QCheck.make gen) prop)

let hist_summary_json_roundtrip =
  (* The sap-stats v3 histogram leaf: summary -> JSON text -> parse ->
     summary must preserve counts and buckets exactly, and the recomputed
     quantiles must match (the emitter prints floats exactly). *)
  let prop vs =
    let open Obs.Metrics in
    let s = summary_of_values (Array.of_list vs) in
    let txt = Obs.Json.to_string (summary_json s) in
    match Obs.Json.of_string txt with
    | Error _ -> false
    | Ok j -> (
        match summary_of_json j with
        | None -> false
        | Some s' ->
            let eqf x y = x = y || (Float.is_nan x && Float.is_nan y) in
            s'.count = s.count && s'.buckets = s.buckets
            && eqf s'.sum s.sum && eqf s'.min s.min && eqf s'.max s.max
            && List.for_all
                 (fun q -> eqf (quantile s' q) (quantile s q))
                 [ 0.5; 0.9; 0.95; 0.99 ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"sap-stats v3 summary JSON round-trip"
       (QCheck.make (gen_samples ~min_size:0))
       prop)

let hist_edge_cases () =
  let open Obs.Metrics in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (quantile empty_summary 0.5));
  Alcotest.(check bool) "no count field rejected" true
    (summary_of_json (Obs.Json.Obj [ ("sum", Obs.Json.Float 1.0) ]) = None);
  (* Out-of-range values land in the underflow/overflow buckets but the
     quantiles still clamp to the exact extremes. *)
  let s = summary_of_values [| 1e-12; 5.0; 1e9 |] in
  Alcotest.(check int) "count" 3 s.count;
  Alcotest.(check int) "underflow bucket" 1 s.buckets.(0);
  Alcotest.(check int) "overflow bucket" 1 s.buckets.(bucket_count - 1);
  Alcotest.(check (float 0.0)) "p0 clamps to min" 1e-12 (quantile s 0.0);
  Alcotest.(check (float 0.0)) "p100 clamps to max" 1e9 (quantile s 1.0);
  (* summary_observe is the single-step form of summary_of_values. *)
  let s' =
    List.fold_left summary_observe empty_summary [ 1e-12; 5.0; 1e9 ]
  in
  Alcotest.(check bool) "observe folds to of_values" true (s' = s);
  (* Grid sanity: the index function is total and monotone. *)
  Alcotest.(check int) "nan underflows" 0 (bucket_index Float.nan);
  Alcotest.(check int) "tiny underflows" 0 (bucket_index 1e-10);
  Alcotest.(check int) "huge overflows" (bucket_count - 1)
    (bucket_index infinity);
  let rec monotone i prev =
    i > 60
    || begin
         let v = 1e-9 *. Float.pow 10.0 (float_of_int i /. 4.0) in
         let k = bucket_index v in
         k >= prev && k >= 0 && k < bucket_count && monotone (i + 1) k
       end
  in
  Alcotest.(check bool) "bucket_index monotone" true (monotone 0 0)

(* ---------- Chrome trace ---------- *)

let mk_span ?(domain = 0) ?(attrs = []) ?(children = []) name start duration =
  {
    Obs.Trace.name;
    start;
    duration;
    domain;
    gc =
      {
        Obs.Trace.minor_words = 10.0;
        promoted_words = 1.0;
        major_words = 2.0;
        minor_collections = 0;
        major_collections = 0;
      };
    attrs;
    children;
  }

let assoc name = function
  | Obs.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let chrome_trace_structure () =
  let child = mk_span "inner" 10.5 0.25 ~attrs:[ ("k", "v") ] in
  let root = mk_span "outer" 10.0 1.0 ~children:[ child ] in
  let worker = mk_span "parallel.worker" 10.2 0.5 ~domain:3 in
  let doc = Obs.Chrome_trace.convert [ root; worker ] in
  let events =
    match assoc "traceEvents" doc with
    | Some (Obs.Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let phase ev =
    match assoc "ph" ev with Some (Obs.Json.String p) -> p | _ -> "?"
  in
  let metas, xs = List.partition (fun ev -> phase ev = "M") events in
  (* One process_name + one thread_name per distinct domain (0 and 3). *)
  Alcotest.(check int) "metadata events" 3 (List.length metas);
  Alcotest.(check int) "complete events" 3 (List.length xs);
  (* Metadata precedes complete events. *)
  let rec first_x_index i = function
    | [] -> i
    | ev :: rest -> if phase ev = "X" then i else first_x_index (i + 1) rest
  in
  Alcotest.(check int) "metadata first" (List.length metas)
    (first_x_index 0 events);
  let ts ev = match assoc "ts" ev with Some (Obs.Json.Float t) -> t | _ -> -1.0 in
  let rec sorted = function
    | a :: (b :: _ as rest) -> ts a <= ts b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "X events sorted by ts" true (sorted xs);
  (* ts is relative to the earliest span, in microseconds. *)
  Alcotest.(check bool) "first ts is 0" true (ts (List.hd xs) = 0.0);
  let outer = List.hd xs in
  (match assoc "dur" outer with
  | Some (Obs.Json.Float d) ->
      Alcotest.(check bool) "dur in microseconds" true
        (Helpers.close_enough d 1e6)
  | _ -> Alcotest.fail "dur missing");
  (* Worker domain lands on its own track, and every event carries gc args. *)
  let tid ev = match assoc "tid" ev with Some (Obs.Json.Int t) -> t | _ -> -1 in
  Alcotest.(check (list int)) "tids" [ 0; 3; 0 ] (List.map tid xs);
  List.iter
    (fun ev ->
      match assoc "args" ev with
      | Some args ->
          Alcotest.(check bool) "gc in args" true (assoc "gc" args <> None)
      | None -> Alcotest.fail "args missing")
    xs

(* ---------- Diff ---------- *)

let diff_report counters extras =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "sap-stats v3");
      ( "metrics",
        Obs.Json.Obj
          [
            ( "counters",
              Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) counters) );
            ("gauges", Obs.Json.Obj []);
            ("histograms", Obs.Json.Obj []);
          ] );
      ("spans", Obs.Json.List []);
    ]
  |> function
  | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ extras)
  | _ -> assert false

let failures findings =
  List.filter (fun f -> Obs.Diff.is_failure f.Obs.Diff.status) findings

let diff_identical_ok () =
  let r = diff_report [ ("a.x", 10); ("b.y", 0) ] [] in
  let findings = Obs.Diff.compare_reports ~old_report:r ~new_report:r () in
  Alcotest.(check int) "no failures" 0 (List.length (failures findings));
  Alcotest.(check bool) "spans skipped, schema matched" true
    (Obs.Diff.count Obs.Diff.Match findings >= 3)

let diff_counter_regression () =
  let old_r = diff_report [ ("dp.states", 100) ] [] in
  let new_r = diff_report [ ("dp.states", 120) ] [] in
  let findings = Obs.Diff.compare_reports ~old_report:old_r ~new_report:new_r () in
  (match failures findings with
  | [ f ] ->
      Alcotest.(check string) "path" "metrics.counters.dp.states" f.Obs.Diff.path;
      Alcotest.(check bool) "regressed" true (f.Obs.Diff.status = Obs.Diff.Regressed)
  | l -> Alcotest.failf "expected one failure, got %d" (List.length l));
  (* The same drift passes under a loose counter tolerance. *)
  let loose =
    { Obs.Diff.default_thresholds with Obs.Diff.counter_tol = 0.5 }
  in
  let findings =
    Obs.Diff.compare_reports ~thresholds:loose ~old_report:old_r ~new_report:new_r ()
  in
  Alcotest.(check int) "within tolerance" 0 (List.length (failures findings))

let diff_missing_and_added () =
  let old_r = diff_report [ ("a", 1); ("b", 2) ] [] in
  let new_r = diff_report [ ("a", 1); ("c", 3) ] [] in
  let findings = Obs.Diff.compare_reports ~old_report:old_r ~new_report:new_r () in
  Alcotest.(check int) "missing b fails" 1 (List.length (failures findings));
  Alcotest.(check int) "missing status" 1 (Obs.Diff.count Obs.Diff.Missing findings);
  Alcotest.(check int) "added c noted" 1 (Obs.Diff.count Obs.Diff.Added findings)

let diff_timing_semantics () =
  let with_time t =
    diff_report [ ("a", 1) ]
      [ ("result", Obs.Json.Obj [ ("time_seconds", Obs.Json.Float t) ]) ]
  in
  (* Default: timing is not gated at all. *)
  let findings =
    Obs.Diff.compare_reports ~old_report:(with_time 1.0) ~new_report:(with_time 50.0) ()
  in
  Alcotest.(check int) "ungated" 0 (List.length (failures findings));
  let gated = { Obs.Diff.default_thresholds with Obs.Diff.time_factor = 1.5 } in
  (* Slower beyond the factor: regression. *)
  let findings =
    Obs.Diff.compare_reports ~thresholds:gated ~old_report:(with_time 1.0)
      ~new_report:(with_time 2.0) ()
  in
  Alcotest.(check int) "slowdown fails" 1 (List.length (failures findings));
  (* Faster: improvement, never a failure. *)
  let findings =
    Obs.Diff.compare_reports ~thresholds:gated ~old_report:(with_time 2.0)
      ~new_report:(with_time 1.0) ()
  in
  Alcotest.(check int) "speedup passes" 0 (List.length (failures findings));
  Alcotest.(check int) "marked improved" 1 (Obs.Diff.count Obs.Diff.Improved findings)

let diff_ignore_prefixes () =
  let old_r = diff_report [ ("a", 1) ] [] in
  let new_r = diff_report [ ("a", 2) ] [] in
  let t =
    { Obs.Diff.default_thresholds with Obs.Diff.ignore_prefixes = [ "metrics.counters" ] }
  in
  let findings =
    Obs.Diff.compare_reports ~thresholds:t ~old_report:old_r ~new_report:new_r ()
  in
  Alcotest.(check int) "ignored" 0 (List.length (failures findings))

let diff_table_renders () =
  let old_r = diff_report [ ("a", 1) ] [] in
  let new_r = diff_report [ ("a", 2) ] [] in
  let findings = Obs.Diff.compare_reports ~old_report:old_r ~new_report:new_r () in
  let table = Obs.Diff.render_table findings in
  let contains sub =
    let n = String.length table and m = String.length sub in
    let rec go i = i + m <= n && (String.sub table i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "metric named" true (contains "metrics.counters.a");
  Alcotest.(check bool) "status shown" true (contains "REGRESSED");
  Alcotest.(check bool) "summary counts failures" true
    (let s = Obs.Diff.summary findings in
     let n = String.length s and m = String.length "1 regressed" in
     let rec go i = i + m <= n && (String.sub s i m = "1 regressed" || go (i + 1)) in
     go 0)

let diff_hist_report hists =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "sap-stats v3");
      ( "metrics",
        Obs.Json.Obj
          [
            ("counters", Obs.Json.Obj []);
            ("gauges", Obs.Json.Obj []);
            ("histograms", Obs.Json.Obj hists);
          ] );
      ("spans", Obs.Json.List []);
    ]

let diff_quantile_leaves_are_timing () =
  (* A histogram whose name carries no timing keyword: its p50 leaf must
     still classify as timing (ungated by default, factor-gated under
     --time-factor), while its count stays a gated counter. *)
  let report p50 =
    diff_hist_report
      [
        ( "lab.ratio",
          Obs.Json.Obj
            [ ("count", Obs.Json.Int 4); ("p50", Obs.Json.Float p50) ] );
      ]
  in
  let findings =
    Obs.Diff.compare_reports ~old_report:(report 1.0) ~new_report:(report 40.0)
      ()
  in
  Alcotest.(check int) "10x p50 drift ungated by default" 0
    (List.length (failures findings));
  let gated = { Obs.Diff.default_thresholds with Obs.Diff.time_factor = 1.5 } in
  let findings =
    Obs.Diff.compare_reports ~thresholds:gated ~old_report:(report 1.0)
      ~new_report:(report 40.0) ()
  in
  (match failures findings with
  | [ f ] ->
      Alcotest.(check string) "p50 path"
        "metrics.histograms.lab.ratio.p50" f.Obs.Diff.path
  | l -> Alcotest.failf "expected one failure, got %d" (List.length l));
  let findings =
    Obs.Diff.compare_reports ~thresholds:gated ~old_report:(report 40.0)
      ~new_report:(report 1.0) ()
  in
  Alcotest.(check int) "speedup never fails" 0 (List.length (failures findings));
  Alcotest.(check int) "speedup marked improved" 1
    (Obs.Diff.count Obs.Diff.Improved findings)

let diff_buckets_subtree_ignored () =
  (* Bucket keys flap between machines of different speeds (the same
     latency lands one bucket over), so the sparse .buckets. subtree must
     never produce Missing/Added findings. *)
  let report idx =
    diff_hist_report
      [
        ( "server.latency.total",
          Obs.Json.Obj
            [
              ("count", Obs.Json.Int 7);
              ("buckets", Obs.Json.Obj [ (idx, Obs.Json.Int 7) ]);
            ] );
      ]
  in
  let findings =
    Obs.Diff.compare_reports ~old_report:(report "42") ~new_report:(report "55")
      ()
  in
  Alcotest.(check int) "disjoint bucket keys: no failures" 0
    (List.length (failures findings));
  List.iter
    (fun f ->
      let p = f.Obs.Diff.path in
      let is_bucket =
        let n = String.length p and m = String.length ".buckets." in
        let rec go i =
          i + m <= n && (String.sub p i m = ".buckets." || go (i + 1))
        in
        go 0
      in
      if is_bucket then
        Alcotest.(check bool) (p ^ " skipped") true
          (f.Obs.Diff.status = Obs.Diff.Skipped))
    findings

(* ---------- atomic writes ---------- *)

let report_write_is_atomic () =
  let dir = Filename.temp_file "obs_report" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let target = Filename.concat dir "report.json" in
      let doc = Obs.Json.Obj [ ("k", Obs.Json.Int 1) ] in
      Obs.Report.write_file target doc;
      Obs.Report.write_file target doc;
      (* Only the target remains: temp files are renamed away or removed. *)
      Alcotest.(check (list string)) "no temp droppings" [ "report.json" ]
        (Array.to_list (Sys.readdir dir));
      let ic = open_in target in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "written content parses" true
        (Obs.Json.of_string s = Ok doc);
      (* Same permission bits as a file [open_out] creates next to it. *)
      let plain = Filename.concat dir "plain.txt" in
      close_out (open_out plain);
      let perm f = (Unix.stat f).Unix.st_perm in
      Alcotest.(check int) "mode matches open_out" (perm plain) (perm target))

(* ---------- Report ---------- *)

let report_schema_and_extras () =
  clean ();
  Obs.Report.enable_all ();
  let c = Obs.Metrics.counter "t.report.counter" in
  Obs.Metrics.incr c;
  Obs.Trace.with_span "t.report.span" (fun () -> ());
  let report = Obs.Report.build ~extra:[ ("command", Obs.Json.String "test") ] () in
  let s = Obs.Json.to_string report in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub -> Alcotest.(check bool) (sub ^ " present") true (contains sub))
    [
      {|"schema":"sap-stats v3"|};
      {|"clock":{"wall_epoch_seconds":|};
      {|"command":"test"|};
      {|"counters"|};
      {|"gauges"|};
      {|"histograms"|};
      {|"t.report.counter":1|};
      {|"name":"t.report.span"|};
      {|"gc":{"minor_words":|};
      {|"domain":|};
    ];
  (* The emitted report must parse with our own parser (bench-diff eats
     these files). *)
  Alcotest.(check bool) "report parses" true
    (match Obs.Json.of_string s with Ok _ -> true | Error _ -> false);
  clean ()

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          case "disabled is a no-op" metrics_disabled_noop;
          case "counter roundtrip" metrics_counter_roundtrip;
          case "gauge and histogram" metrics_gauge_and_histogram;
          case "parallel counters" metrics_parallel_counters;
          case "reset keeps names" metrics_reset_keeps_names;
          case "time passthrough" metrics_time_passthrough;
        ] );
      ( "trace",
        [
          case "disabled passthrough" trace_disabled_passthrough;
          case "nesting and attrs" trace_nesting_and_attrs;
          case "records on raise" trace_records_on_raise;
          case "sequential roots" trace_sequential_roots;
          case "gc and domain attribution" trace_gc_and_domain_attribution;
          case "parallel worker lanes" trace_parallel_worker_lanes;
        ] );
      ( "json",
        [
          case "scalars" json_scalars;
          case "string escaping" json_string_escaping;
          case "compound" json_compound;
          case "parse scalars" json_parse_scalars;
          case "parse errors" json_parse_errors;
          json_roundtrip_span_trees;
        ] );
      ( "histogram",
        [
          hist_quantile_within_bucket;
          hist_merge_associative;
          hist_summary_json_roundtrip;
          case "edge cases and grid sanity" hist_edge_cases;
        ] );
      ( "chrome-trace", [ case "structure and ordering" chrome_trace_structure ] );
      ( "diff",
        [
          case "identical reports pass" diff_identical_ok;
          case "counter regression fails" diff_counter_regression;
          case "missing and added metrics" diff_missing_and_added;
          case "timing semantics" diff_timing_semantics;
          case "quantile leaves gate as timing" diff_quantile_leaves_are_timing;
          case "bucket subtrees ignored" diff_buckets_subtree_ignored;
          case "ignore prefixes" diff_ignore_prefixes;
          case "table rendering" diff_table_renders;
        ] );
      ( "report",
        [
          case "schema and extras" report_schema_and_extras;
          case "write_file is atomic" report_write_is_atomic;
        ] );
    ]
