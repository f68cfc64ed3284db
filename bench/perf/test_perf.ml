module PM = Perf_metrics

let case name f = Alcotest.test_case name `Quick f

let feq = Alcotest.float 1e-9

(* ---------- percentiles ---------- *)

let percentile_rule () =
  Alcotest.(check (option feq)) "10 samples support nothing" None (PM.supported_quantile 10);
  Alcotest.(check (option feq)) "20 samples: p50" (Some 0.5) (PM.supported_quantile 20);
  Alcotest.(check (option feq)) "1000 samples: p99" (Some 0.99) (PM.supported_quantile 1000);
  Alcotest.(check (option feq)) "4000 samples: p99.75" (Some 0.9975)
    (PM.supported_quantile 4000);
  let note n = Format.asprintf "%a" PM.pp_latency { PM.n; p50_ms = 1.0; p99_ms = 2.0 } in
  Alcotest.(check string) "p99 supported" "n=1000, p99 supported" (note 1000);
  Alcotest.(check string) "p99 unsupported" "n=500, p99 unsupported (highest p98.0)" (note 500)

let latency_nearest_rank () =
  let l = PM.latency (Array.init 1000 (fun i -> float_of_int (1000 - i) /. 1000.0)) in
  Alcotest.(check int) "count" 1000 l.n;
  Alcotest.check feq "p50 is the 500th smallest" 500.0 l.p50_ms;
  Alcotest.check feq "p99 is the 990th smallest" 990.0 l.p99_ms;
  Alcotest.check_raises "empty" (Invalid_argument "Perf_metrics.latency: empty") (fun () ->
      ignore (PM.latency [||]))

let bins () =
  (* 100 events per second for 2 s, then a 1 s gap, then 200/s. *)
  let events =
    Array.append
      (Array.init 200 (fun i -> float_of_int i /. 100.0))
      (Array.init 200 (fun i -> 3.0 +. (float_of_int i /. 200.0)))
  in
  Alcotest.check feq "median of six 0.5 s bins" 100.0
    (PM.binned_rate ~bin:0.5 ~t0:0.0 ~t1:3.0 events);
  Alcotest.check feq "no whole bin" 0.0 (PM.binned_rate ~bin:0.5 ~t0:0.0 ~t1:0.4 events);
  Alcotest.check feq "median" 2.0 (PM.median [| 3.0; 1.0; 2.0 |])

(* ---------- rungs ---------- *)

let backlog () =
  let sched = [| 0.0; 1.0; 2.0; 3.0 |] and done_ = [| 0.5; Float.nan; 2.5; 3.0 |] in
  Alcotest.(check int) "before any" 0 (PM.outstanding ~sched ~done_ (-1.0));
  Alcotest.(check int) "one in flight" 1 (PM.outstanding ~sched ~done_ 0.2);
  Alcotest.(check int) "lost request stays" 2 (PM.outstanding ~sched ~done_ 2.2);
  Alcotest.(check int) "done at t is not outstanding" 1 (PM.outstanding ~sched ~done_ 3.0);
  let steady = [| 3; 5; 2; 4; 3; 6; 2; 4 |] in
  Alcotest.(check bool) "steady" false (PM.backlog_growing ~slack:4.0 steady);
  let growing = [| 2; 40; 90; 150; 210; 260; 330; 400 |] in
  Alcotest.(check bool) "growing" true (PM.backlog_growing ~slack:4.0 growing);
  Alcotest.(check bool) "growth within slack" false
    (PM.backlog_growing ~slack:10.0 [| 1; 2; 3; 4; 5; 6; 7; 8 |]);
  Alcotest.(check bool) "one sample" false (PM.backlog_growing ~slack:0.0 [| 9 |])

let rungs () =
  let r offered achieved p99 growing =
    { PM.offered_rps = offered; achieved_rps = achieved; rung_p99_ms = p99; growing }
  in
  let ok = PM.rung_ok ~slo_ms:20.0 in
  Alcotest.(check bool) "meets all" true (ok (r 500.0 480.0 12.0 false));
  Alcotest.(check bool) "p99 over the SLO" false (ok (r 500.0 500.0 20.5 false));
  Alcotest.(check bool) "achieved below 0.95" false (ok (r 500.0 470.0 5.0 false));
  Alcotest.(check bool) "growing backlog" false (ok (r 500.0 500.0 5.0 true));
  let ladder = [ r 250.0 250.0 3.0 false; r 500.0 499.0 9.0 false; r 2000.0 1300.0 900.0 true ] in
  Alcotest.check feq "middle rung" 500.0 (PM.max_rps_at_slo ~slo_ms:20.0 ladder);
  Alcotest.check feq "none" 0.0 (PM.max_rps_at_slo ~slo_ms:1.0 ladder);
  Alcotest.check feq "highest passing, not the first failure" 2000.0
    (PM.max_rps_at_slo ~slo_ms:20.0
       [ r 250.0 250.0 30.0 false; r 2000.0 1990.0 10.0 false ])

(* ---------- spans ---------- *)

let gc =
  {
    Obs.Trace.minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
  }

let span name start duration children =
  { Obs.Trace.name; start; duration; domain = 0; gc; attrs = []; children }

let is_layer n = String.length n > 4 && String.sub n 0 4 = "sap."

let self_time () =
  (* sap.combine [0,10) holds sap.small [1,4), a library span [4,9)
     holding sap.medium [5,8), and sap.large [8.5,9.5) overlapping it. *)
  let small = span "sap.small" 1.0 3.0 [] in
  let medium = span "sap.medium" 5.0 3.0 [] in
  let lib = span "combine.part" 4.0 5.0 [ medium ] in
  let large = span "sap.large" 8.5 1.0 [] in
  let root = span "sap.combine" 0.0 10.0 [ small; lib; large ] in
  Alcotest.check feq "library span looked through" (10.0 -. 3.0 -. 3.0 -. 1.0)
    (PM.self_time ~is_layer root);
  let overlap = span "sap.combine" 0.0 10.0 [ span "sap.a" 1.0 4.0 []; span "sap.b" 3.0 4.0 [] ] in
  Alcotest.check feq "union of overlapping children" 4.0 (PM.self_time ~is_layer overlap);
  let clipped = span "sap.combine" 0.0 2.0 [ span "sap.a" 1.0 5.0 [] ] in
  Alcotest.check feq "children clipped to the parent" 1.0 (PM.self_time ~is_layer clipped);
  let times = PM.layer_times ~is_layer [ root; span "sap.small" 20.0 2.0 [] ] in
  Alcotest.(check (list string)) "layers only, sorted"
    [ "sap.combine"; "sap.large"; "sap.medium"; "sap.small" ] (List.map fst times);
  let small = List.assoc "sap.small" times in
  Alcotest.check feq "busy sums calls" 5.0 small.busy;
  Alcotest.(check int) "calls" 2 small.calls

(* ---------- histograms ---------- *)

let hist_delta () =
  let before = Obs.Metrics.summary_of_values [| 0.001; 0.002 |] in
  let after = Obs.Metrics.summary_of_values [| 0.001; 0.002; 0.004; 0.004; 0.008 |] in
  let d = PM.hist_delta before after in
  Alcotest.(check int) "count" 3 d.count;
  Alcotest.check (Alcotest.float 1e-12) "sum" 0.016 d.sum;
  Alcotest.(check int) "buckets sum to count" 3 (Array.fold_left ( + ) 0 d.buckets);
  let p50 = Obs.Metrics.quantile d 0.5 in
  Alcotest.(check bool) "p50 within a bucket of 4 ms" true (p50 > 0.0036 && p50 < 0.0044);
  Alcotest.(check bool) "p99 within a bucket of 8 ms" true
    (let p = Obs.Metrics.quantile d 0.99 in
     p > 0.0072 && p < 0.0088);
  Alcotest.(check int) "empty delta" 0 (PM.hist_delta after after).count

(* ---------- result line ---------- *)

let result_roundtrip () =
  let r =
    {
      PM.correct = true;
      attempted = 1234;
      failed = 0;
      metrics =
        [
          { PM.name = "ops_per_s"; value = 123.456789012345; unit_ = "1/s" };
          { PM.name = "setup_s"; value = 0.8127; unit_ = "s" };
          { PM.name = "lp.simplex.iterations"; value = 17823.0; unit_ = "count" };
        ];
    }
  in
  let text = Obs.Json.to_string (PM.result_json r) in
  Alcotest.(check bool) "one line" false (String.contains text '\n');
  match Result.bind (Obs.Json.of_string text) PM.result_of_json with
  | Error m -> Alcotest.fail m
  | Ok back ->
      Alcotest.(check bool) "identical after a round trip" true (back = r);
      Alcotest.check_raises "non-finite refused"
        (Invalid_argument "Perf_metrics.result_json: non-finite x") (fun () ->
          ignore
            (PM.result_json
               { r with metrics = [ { PM.name = "x"; value = Float.nan; unit_ = "s" } ] }));
      Alcotest.(check bool) "missing key refused" true
        (Result.is_error
           (PM.result_of_json (Obs.Json.Obj [ ("correct", Obs.Json.Bool true) ])))

let () =
  Alcotest.run "perf"
    [
      ( "percentiles",
        [
          case "supported percentile rule" percentile_rule;
          case "nearest rank" latency_nearest_rank;
          case "median and bins" bins;
        ] );
      ("rungs", [ case "backlog growth" backlog; case "rung and SLO selection" rungs ]);
      ("spans", [ case "self time" self_time ]);
      ("histograms", [ case "scrape delta" hist_delta ]);
      ("result", [ case "JSON round trip" result_roundtrip ]);
    ]
