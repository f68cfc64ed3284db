(* sap-cli: generate, solve, check and display SAP instances.

   The subcommands compose through the text format of [Sap_io.Instance_io]:

     sap_cli gen --profile staircase --edges 12 --tasks 30 -o inst.sap
     sap_cli solve -i inst.sap --algorithm combine -o sol.sap
     sap_cli check -i inst.sap -s sol.sap
     sap_cli show -i inst.sap -s sol.sap

   Observability sidecars and the bench regression gate:

     sap_cli solve -i inst.sap --stats-json stats.json --audit \
                   --trace-chrome trace.json
     sap_cli bench-diff bench/baseline.json fresh.json *)

module Task = Core.Task
module Path = Core.Path
module Server = Sap_server.Server
module Transport = Sap_server.Transport
module Client = Sap_server.Client
module Proto = Sap_server.Protocol
module Router = Sap_server.Router

(* A command fails by raising: the handler at the bottom prints
   `error: <msg>` and exits 2, never a raw backtrace. *)
let die fmt = Printf.ksprintf failwith fmt

(* Every message names the file once: the Sys_error from open/read
   usually leads with the path already. *)
let read_text_file file =
  try Sap_io.Instance_io.read_file file
  with Sys_error m ->
    if String.starts_with ~prefix:(file ^ ": ") m then die "%s" m
    else die "%s: %s" file m

let ok_or_die = function Ok v -> v | Error m -> die "%s" m

let parsed file = function Ok v -> v | Error m -> die "%s: %s" file m

let read_instance file =
  parsed file (Sap_io.Instance_io.instance_of_string (read_text_file file))

let read_solution ~tasks file =
  parsed file (Sap_io.Instance_io.solution_of_string ~tasks (read_text_file file))

let read_json file = parsed file (Obs.Json.of_string (read_text_file file))

let load_corpus dir = parsed dir (Lab.Corpus.load ~dir)

let output_string_to dest s =
  match dest with
  | None -> print_string s
  | Some file -> Sap_io.Instance_io.write_file file s

(* A client writing to a peer that went away gets EPIPE, not a kill. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* SIGINT/SIGTERM request a stop: the self-pipe wakes the accept loop
   immediately, it stops taking connections, every accepted request still
   gets its response, and the caller drains — no abrupt kill mid-write. *)
let stop_on_signals () =
  let stop = Transport.stopper () in
  if Sys.os_type = "Unix" then begin
    let on_signal = Sys.Signal_handle (fun _ -> Transport.request_stop stop) in
    Sys.set_signal Sys.sigint on_signal;
    Sys.set_signal Sys.sigterm on_signal
  end;
  stop

(* ---------- gen ---------- *)

let make_path ~profile ~edges ~capacity ~prng =
  match profile with
  | "uniform" -> Gen.Profiles.uniform ~edges ~capacity
  | "valley" -> Gen.Profiles.valley ~edges ~high:capacity ~low:(max 1 (capacity / 4))
  | "mountain" -> Gen.Profiles.mountain ~edges ~low:(max 1 (capacity / 4)) ~high:capacity
  | "staircase" -> Gen.Profiles.staircase ~edges ~steps:3 ~base:(max 1 (capacity / 4))
  | "walk" ->
      Gen.Profiles.random_walk ~prng ~edges ~start:capacity
        ~max_step:(max 1 (capacity / 8))
        ~min_cap:(max 1 (capacity / 4))
  | other -> die "unknown profile %S" other

let make_tasks ~kind ~prng ~path ~n =
  match kind with
  | "mixed" -> Gen.Workloads.mixed_tasks ~prng ~path ~n ()
  | "small" -> Gen.Workloads.small_tasks ~prng ~path ~n ~delta:0.25 ()
  | "medium" -> Gen.Workloads.ratio_tasks ~prng ~path ~n ~lo:0.25 ~hi:0.5 ()
  | "large" -> Gen.Workloads.ratio_tasks ~prng ~path ~n ~lo:0.5 ~hi:1.0 ()
  | "memory" ->
      let _, ts =
        Gen.Traces.memory_trace ~prng ~time_slots:(Path.num_edges path)
          ~memory:(Path.min_capacity path) ~n ~max_lifetime:6
          ~max_object:(max 1 (Path.min_capacity path / 4))
      in
      ts
  | other -> die "unknown workload kind %S" other

let gen_cmd profile edges capacity kind n seed output =
  let prng = Util.Prng.create seed in
  let path = make_path ~profile ~edges ~capacity ~prng in
  let tasks = make_tasks ~kind ~prng ~path ~n in
  output_string_to output (Sap_io.Instance_io.instance_to_string path tasks);
  0

(* ---------- solve ---------- *)

let instance_stats_json path tasks =
  let s = Core.Instance_stats.compute path tasks in
  Obs.Json.Obj
    [
      ("num_edges", Obs.Json.Int s.Core.Instance_stats.num_edges);
      ("num_tasks", Obs.Json.Int s.Core.Instance_stats.num_tasks);
      ("min_capacity", Obs.Json.Int s.Core.Instance_stats.min_capacity);
      ("max_capacity", Obs.Json.Int s.Core.Instance_stats.max_capacity);
      ("total_weight", Obs.Json.Float s.Core.Instance_stats.total_weight);
      ("total_demand", Obs.Json.Int s.Core.Instance_stats.total_demand);
      ("max_load", Obs.Json.Int s.Core.Instance_stats.max_load);
      ("small_fraction", Obs.Json.Float s.Core.Instance_stats.small_fraction);
      ("medium_fraction", Obs.Json.Float s.Core.Instance_stats.medium_fraction);
      ("large_fraction", Obs.Json.Float s.Core.Instance_stats.large_fraction);
      ("unfit_tasks", Obs.Json.Int s.Core.Instance_stats.unfit_tasks);
      ( "bottleneck_bands",
        Obs.Json.Obj
          (List.map
             (fun (t, c) -> (string_of_int t, Obs.Json.Int c))
             s.Core.Instance_stats.bottleneck_bands) );
    ]

let solve_cmd input algorithm output quiet seed parallel stats_json audit
    trace_chrome =
  let path, tasks = read_instance input in
  let solver =
    match Sap.Solvers.find algorithm with
    | Some s -> s
    | None ->
        die "unknown algorithm %S (have: %s)" algorithm
          (String.concat ", " Sap.Solvers.names)
  in
  (* [combine] goes through [solve_report] so the audit can carry its
     per-part contributions; every other algorithm is its registry entry. *)
  let report = ref None in
  let solve path ts =
    match solver.Sap.Solvers.name with
    | "combine" ->
        let r =
          Sap.Combine.solve_report
            ~config:{ Sap.Combine.default_config with seed; parallel }
            path ts
        in
        report := Some r;
        r.Sap.Combine.solution
    | _ -> solver.Sap.Solvers.solve ~seed ~parallel path ts
  in
  if stats_json <> None || trace_chrome <> None then Obs.Report.enable_all ();
  let t0 = Obs.Clock.monotonic_seconds () in
  let sol = solve path tasks in
  let dt = Obs.Clock.monotonic_seconds () -. t0 in
  (* The reports describe the solve alone: the checker, the LP bound and
     the audit below run with collection off. *)
  Obs.Report.disable_all ();
  (match Core.Checker.sap_feasible path sol with
  | Ok () -> ()
  | Error m ->
      Printf.eprintf "internal error: infeasible solution: %s\n" m;
      exit 3);
  let lp_ub = Lp.Ufpp_lp.upper_bound path tasks in
  let weight = Core.Solution.sap_weight sol in
  let a = Sap.Combine.audit ~lp_upper_bound:lp_ub ?report:!report path tasks sol in
  if not quiet then begin
    Printf.printf "tasks            %d\n" (List.length tasks);
    Printf.printf "scheduled        %d\n" (List.length sol);
    Printf.printf "weight           %.3f\n" weight;
    Printf.printf "total weight     %.3f\n" (Task.weight_of tasks);
    Printf.printf "lp upper bound   %.3f\n" lp_ub;
    Printf.printf "time             %.3fs\n" dt
  end;
  if audit then begin
    print_endline "--- audit ---";
    Format.printf "%a@." Sap.Combine.pp_audit a
  end;
  Option.iter
    (fun file ->
      Obs.Report.write_file file
        (Obs.Report.build
           ~extra:
             [
               ("command", Obs.Json.String "solve");
               ("algorithm", Obs.Json.String algorithm);
               ("seed", Obs.Json.Int seed);
               ("instance", instance_stats_json path tasks);
               ( "result",
                 Obs.Json.Obj
                   [
                     ("scheduled", Obs.Json.Int (List.length sol));
                     ("weight", Obs.Json.Float weight);
                     ("total_weight", Obs.Json.Float (Task.weight_of tasks));
                     ("lp_upper_bound", Obs.Json.Float lp_ub);
                     ("time_seconds", Obs.Json.Float dt);
                   ] );
               ("audit", Sap.Combine.audit_json a);
             ]
           ()))
    stats_json;
  Option.iter
    (fun file -> Obs.Report.write_file file (Obs.Chrome_trace.of_current ()))
    trace_chrome;
  (match output with
  | None -> ()
  | Some file -> Sap_io.Instance_io.write_file file (Sap_io.Instance_io.solution_to_string sol));
  0

(* ---------- bench-diff ---------- *)

let bench_diff_cmd old_file new_file counter_tol float_tol time_factor ignores
    show_all =
  let old_report = read_json old_file in
  let new_report = read_json new_file in
  let thresholds =
    { Obs.Diff.counter_tol; float_tol; time_factor; ignore_prefixes = ignores }
  in
  let findings = Obs.Diff.compare_reports ~thresholds ~old_report ~new_report () in
  let table = Obs.Diff.render_table ~show_all findings in
  if table <> "" then print_string table;
  print_endline (Obs.Diff.summary findings);
  let failures =
    List.filter (fun f -> Obs.Diff.is_failure f.Obs.Diff.status) findings
  in
  if failures = [] then begin
    Printf.printf "bench-diff: OK (%s vs %s)\n" old_file new_file;
    0
  end
  else begin
    Printf.printf "bench-diff: %d regression(s)\n" (List.length failures);
    1
  end

(* ---------- check ---------- *)

let check_cmd input solution_file =
  let path, tasks = read_instance input in
  let sol = read_solution ~tasks solution_file in
  match Core.Checker.sap_feasible path sol with
  | Ok () ->
      Printf.printf "feasible: %d tasks, weight %.3f\n" (List.length sol)
        (Core.Solution.sap_weight sol);
      0
  | Error m ->
      Printf.printf "INFEASIBLE: %s\n" m;
      1

(* ---------- show ---------- *)

let show_cmd input solution_file max_height svg =
  let path, tasks = read_instance input in
  let sol = Option.map (read_solution ~tasks) solution_file in
  (match svg with
  | Some file ->
      let doc =
        match sol with
        | Some s -> Viz.Svg.solution_svg path s
        | None -> Viz.Svg.profile_svg path
      in
      Sap_io.Instance_io.write_file file doc;
      Printf.printf "wrote %s\n" file
  | None -> (
      match sol with
      | None ->
          print_string (Viz.Ascii.render_loads path tasks);
          print_string (Viz.Ascii.render_profile ?max_height path)
      | Some s -> print_string (Viz.Ascii.render_solution ?max_height path s)));
  0

(* ---------- stats ---------- *)

let stats_cmd input =
  let path, tasks = read_instance input in
  let s = Core.Instance_stats.compute path tasks in
  Format.printf "%a@." Core.Instance_stats.pp s;
  0

(* ---------- serve ---------- *)

(* Log lines are emitted from many domains; one mutex serializes whole
   lines into the sink. *)
let log_sink_of log =
  match log with
  | None -> None
  | Some target ->
      let oc = if target = "-" then stderr else open_out target in
      let lock = Mutex.create () in
      Some
        (fun line ->
          Mutex.lock lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock lock)
            (fun () ->
              output_string oc line;
              output_char oc '\n';
              flush oc))

let serve_cmd socket stdio workers queue cache_capacity default_timeout_ms log
    quiet =
  (match (socket, stdio) with
  | None, false -> die "serve needs --socket PATH or --stdio"
  | Some _, true -> die "--socket and --stdio are mutually exclusive"
  | _ -> ());
  (* Counters feed the in-band `stats` response, so collection is on for
     the server's whole lifetime (spans stay off: a long-running service
     must not accumulate an unbounded span tree). *)
  Obs.Metrics.enable ();
  let config =
    { Server.workers; queue_capacity = queue; cache_capacity; default_timeout_ms;
      log = log_sink_of log }
  in
  let server = Server.create ~config () in
  (match socket with
  | Some path ->
      Transport.serve_unix ~stop:(stop_on_signals ())
        ~on_bound:(fun p ->
          if not quiet then Printf.eprintf "sap_cli serve: listening on %s\n%!" p)
        server ~socket_path:path
  | None ->
      if not quiet then Printf.eprintf "sap_cli serve: framed requests on stdin\n%!";
      Transport.serve_channels server stdin stdout);
  Server.drain server;
  if not quiet then Printf.eprintf "sap_cli serve: drained, exiting\n%!";
  0

(* ---------- batch ---------- *)

let batch_cmd socket files algorithm seed timeout_ms no_cache output_dir
    want_stats shutdown quiet =
  if files = [] && not want_stats then
    die "batch needs at least one instance file (or --stats)";
  ignore_sigpipe ();
  let instances = List.map (fun f -> (f, read_instance f)) files in
  let fd =
    match Client.connect_unix socket with
    | Ok fd -> fd
    | Error m -> die "cannot connect: %s" m
  in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let params = { Proto.algorithm; seed; timeout_ms; cache = not no_cache } in
  let t0 = Obs.Clock.monotonic_seconds () in
  let result =
    Client.run_batch ~ic ~oc ~params ~request_stats:want_stats
      ~request_shutdown:shutdown (List.map snd instances)
  in
  let dt = Obs.Clock.monotonic_seconds () -. t0 in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let ok = ref 0 and cached = ref 0 and failed = ref 0 in
  List.iteri
    (fun i (file, (_, tasks)) ->
      match result.Client.responses.(i) with
      | Some (Proto.Solved { summary; solution; _ }) ->
          incr ok;
          if summary.Proto.cached then incr cached;
          if not quiet then
            Printf.printf "ok       %s  scheduled=%d/%d weight=%.3f%s\n" file
              summary.Proto.scheduled (List.length tasks) summary.Proto.weight
              (if summary.Proto.cached then " (cached)" else "");
          Option.iter
            (fun dir ->
              Sap_io.Instance_io.write_file
                (Filename.concat dir (Filename.basename file ^ ".sol"))
                (Sap_io.Instance_io.solution_to_string solution))
            output_dir
      | Some (Proto.Timed_out _) ->
          incr failed;
          Printf.printf "timeout  %s\n" file
      | Some (Proto.Failed { code; message; _ }) ->
          incr failed;
          Printf.printf "error    %s  [%s] %s\n" file
            (Proto.error_code_to_string code)
            message
      | Some _ ->
          incr failed;
          Printf.printf "error    %s  unexpected response kind\n" file
      | None ->
          incr failed;
          Printf.printf "lost     %s  connection closed before response\n" file)
    instances;
  List.iter (Printf.eprintf "warning: %s\n") result.Client.transport_errors;
  if not quiet && files <> [] then
    Printf.printf "batch: %d ok (%d cached), %d failed in %.3fs\n" !ok !cached
      !failed dt;
  (match result.Client.stats with
  | Some stats -> print_endline (Obs.Json.to_string_pretty stats)
  | None -> if want_stats then Printf.eprintf "warning: no stats response received\n");
  if shutdown && not result.Client.shutdown_acked then
    Printf.eprintf "warning: shutdown not acknowledged\n";
  if !failed = 0 && result.Client.transport_errors = [] then 0 else 1

(* ---------- session ---------- *)

let session_cmd socket input churn_file resolve_every cold seed output quiet =
  ignore_sigpipe ();
  if resolve_every < 1 then die "--resolve-every must be >= 1";
  let path, base, events =
    match (input, churn_file) with
    | Some _, Some _ -> die "-i and --churn are mutually exclusive"
    | None, None -> die "session needs -i INSTANCE or --churn TRACE"
    | Some file, None ->
        let path, tasks = read_instance file in
        (path, tasks, [])
    | None, Some file ->
        let c = parsed file (Lab.Corpus.churn_of_string (read_text_file file)) in
        (c.Lab.Corpus.churn_path, c.Lab.Corpus.churn_base, c.Lab.Corpus.churn_events)
  in
  let r =
    ok_or_die
      (Lab.Loadgen.session
         ~connect:(fun () -> Client.connect_unix socket)
         ~seed ~cold ~resolve_every path base events)
  in
  List.iter (Printf.eprintf "error: %s\n") r.Lab.Loadgen.se_failures;
  if not quiet then Format.printf "%a" Lab.Loadgen.pp_session r;
  Option.iter (fun f -> Obs.Report.write_file f (Lab.Loadgen.session_json r)) output;
  if r.Lab.Loadgen.se_failures = [] then 0 else 1

(* ---------- route ---------- *)

let route_cmd socket shards shard_sockets shard_dir vnodes shard_workers
    shard_queue shard_cache shard_timeout_ms log quiet =
  Obs.Metrics.enable ();
  let endpoint i ep_socket ep_spawn =
    { Router.ep_name = Printf.sprintf "shard-%d" i; ep_socket; ep_spawn }
  in
  let endpoints =
    match (shards, shard_sockets) with
    | None, [] -> die "route needs --shards N or --shard PATH"
    | Some _, _ :: _ -> die "--shards and --shard are mutually exclusive"
    | Some n, [] when n < 1 -> die "--shards must be >= 1"
    | None, _ -> List.mapi (fun i path -> endpoint i path None) shard_sockets
    | Some n, [] ->
        let dir =
          match shard_dir with
          | Some d ->
              (try Unix.mkdir d 0o755
               with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
              d
          | None ->
              let d = Filename.temp_file "sap-shards" "" in
              Sys.remove d;
              Unix.mkdir d 0o700;
              d
        in
        (* Children are respawned with the same argv, so build it once
           per endpoint and keep it pure. *)
        let exe = Sys.executable_name in
        let flag name = Option.fold ~none:[] ~some:(fun v -> [ name; string_of_int v ]) in
        let args sock =
          [ exe; "serve"; "--socket"; sock; "-q" ]
          @ flag "--workers" shard_workers
          @ flag "--queue" shard_queue
          @ [ "--cache-capacity"; string_of_int shard_cache ]
          @ flag "--default-timeout-ms" shard_timeout_ms
        in
        let spawn sock =
          Unix.create_process exe (Array.of_list (args sock)) Unix.stdin
            Unix.stdout Unix.stderr
        in
        List.init n (fun i ->
            endpoint i (Filename.concat dir (Printf.sprintf "shard-%d.sock" i))
              (Some spawn))
  in
  let config = { Router.vnodes; log = log_sink_of log } in
  let router = ok_or_die (Router.create ~config endpoints) in
  Router.serve ~stop:(stop_on_signals ()) router
    ~on_bound:(fun p ->
      if not quiet then
        Printf.eprintf "sap_cli route: %d shard(s), listening on %s\n%!"
          (List.length endpoints) p)
    ~socket_path:socket;
  Router.shutdown router;
  if not quiet then Printf.eprintf "sap_cli route: drained, exiting\n%!";
  0

(* ---------- loadgen ---------- *)

let parse_sweep_spec s =
  match List.map float_of_string_opt (String.split_on_char ':' s) with
  | [ Some lo; Some hi; Some step ] -> (lo, hi, step)
  | [ _; _; _ ] -> die "sweep spec must be LO:HI:STEP (numbers)"
  | _ -> die "sweep spec must be LO:HI:STEP"

let loadgen_cmd socket rps duration connections profile distinct algorithm seed
    timeout_ms no_cache no_scrape sweep_spec sweep_threshold output quiet =
  ignore_sigpipe ();
  let cfg =
    {
      Lab.Loadgen.rps;
      duration;
      connections;
      profile;
      distinct;
      algorithm;
      seed;
      timeout_ms;
      cache = not no_cache;
      scrape_stats = not no_scrape;
    }
  in
  let connect () = Client.connect_unix socket in
  let open Lab.Loadgen in
  (* A sweep is a list of runs: both report JSON, then summarize on
     stderr, and fail on any lost request or protocol error. *)
  let json, summarize, runs =
    match sweep_spec with
    | Some spec ->
        let lo, hi, step = parse_sweep_spec spec in
        let sw =
          ok_or_die (sweep ~connect ~threshold:sweep_threshold ~lo ~hi ~step cfg)
        in
        let summarize () =
          List.iter
            (fun (offered, r) ->
              Printf.eprintf
                "sweep: offered %.1f rps -> achieved %.1f rps (p99 %.3fms, %d lost)%s\n"
                offered r.achieved_rps
                (1000.0 *. Obs.Metrics.quantile r.latency 0.99)
                r.lost
                (if r.achieved_rps < sweep_threshold *. offered then "  [saturated]"
                 else ""))
            sw.sw_points;
          match sw.sw_knee with
          | Some k -> Printf.eprintf "sweep: saturation knee at %.1f rps\n" k
          | None ->
              Printf.eprintf "sweep: no knee found (already saturated at %.1f rps)\n" lo
        in
        (sweep_json sw, summarize, List.map snd sw.sw_points)
    | None ->
        let r = ok_or_die (run ~connect cfg) in
        let summarize () =
          let ms p = 1000.0 *. Obs.Metrics.quantile r.latency p in
          Printf.eprintf "loadgen: offered %.1f rps, achieved %.1f rps over %.2fs\n"
            r.offered_rps r.achieved_rps r.elapsed;
          Printf.eprintf
            "  requests: %d sent, %d completed (%d solved, %d cached, %d timeouts, %d errors, %d lost)\n"
            r.sent r.completed r.solved r.cached r.timeouts r.errors r.lost;
          if r.completed > 0 then
            Printf.eprintf "  latency: p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n"
              (ms 0.5) (ms 0.95) (ms 0.99)
              (1000.0 *. r.latency.Obs.Metrics.max);
          Option.iter
            (fun h -> Printf.eprintf "  cache hit rate: %.1f%%\n" (100.0 *. h))
            (cache_hit_rate r);
          if r.server_stats <> None then
            Printf.eprintf "  stats scrape: ok (mid-run snapshot in report)\n"
        in
        (report_json r, summarize, [ r ])
  in
  (match output with
  | Some f -> Obs.Report.write_file f json
  | None -> print_endline (Obs.Json.to_string_pretty json));
  if not quiet then summarize ();
  List.iter (fun r -> List.iter (Printf.eprintf "warning: %s\n") r.protocol_errors) runs;
  if List.exists (fun r -> r.lost > 0 || r.protocol_errors <> []) runs then 1 else 0

(* ---------- lab ---------- *)

let lab_gen_cmd dir seed variants churn =
  let t = Lab.Corpus.generate ~dir ~seed ~variants () in
  Printf.printf "wrote %d instances (%d families, seed %d) + %s to %s\n"
    (List.length t.Lab.Corpus.entries)
    (List.length Lab.Corpus.families)
    seed Lab.Corpus.manifest_file dir;
  Option.iter
    (fun steps ->
      if steps < 0 then die "--churn must be >= 0";
      let c = Lab.Corpus.generate_churn ~seed ~steps in
      let file = Filename.concat dir "churn.trace" in
      Sap_io.Instance_io.write_file file (Lab.Corpus.churn_to_string c);
      Printf.printf "wrote churn trace (%d base tasks, %d events, seed %d) to %s\n"
        (List.length c.Lab.Corpus.churn_base)
        (List.length c.Lab.Corpus.churn_events)
        seed file)
    churn;
  0

let lab_run_cmd dir output max_nodes jobs gate quiet =
  let corpus = load_corpus dir in
  Obs.Metrics.enable ();
  let report = Lab.Ratio.run ?max_nodes ?jobs corpus in
  if not quiet then Format.printf "%a" Lab.Ratio.pp_summary report;
  Option.iter (fun f -> Obs.Report.write_file f (Lab.Ratio.report_json report)) output;
  if gate && (report.Lab.Ratio.violations > 0 || report.Lab.Ratio.disagreements > 0)
  then begin
    Printf.printf
      "lab run: GATE FAILED (%d bound violations, %d oracle disagreements)\n"
      report.Lab.Ratio.violations report.Lab.Ratio.disagreements;
    1
  end
  else 0

let lab_hunt_cmd alg seed generations population budget hof_size jobs output
    hof_dir quiet =
  Obs.Metrics.enable ();
  let config =
    {
      Lab.Hunt.default_config with
      Lab.Hunt.alg;
      seed;
      generations;
      population;
      max_nodes = budget;
      hof_size;
    }
  in
  let report = Lab.Hunt.run ?jobs config in
  if not quiet then Format.printf "%a" Lab.Hunt.pp_summary report;
  Option.iter (fun f -> Obs.Report.write_file f (Lab.Hunt.report_json report)) output;
  Option.iter
    (fun dir ->
      let files = Lab.Hunt.write_hof ~dir report in
      if not quiet then List.iter (fun f -> Printf.printf "wrote %s/%s\n" dir f) files)
    hof_dir;
  0

let lab_worst_cmd report_file top =
  let field name = function
    | Obs.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let ms =
    let json = read_json report_file in
    match (field "schema" json, field "measurements" json) with
    | Some (Obs.Json.String "sap-ratio v1"), Some (Obs.Json.List ms) -> ms
    | _ -> die "%s: not a sap-ratio v1 report" report_file
  in
  let str name m = match field name m with Some (Obs.Json.String s) -> s | _ -> "?" in
  let num name m =
    match field name m with
    | Some (Obs.Json.Float f) -> Some f
    | Some (Obs.Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let rows =
    List.filter_map (fun m -> Option.map (fun r -> (r, m)) (num "ratio" m)) ms
    |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
  in
  Printf.printf "%-8s %9s %7s %-6s %-18s %s\n" "alg" "ratio" "bound" "opt" "family"
    "file";
  List.iteri
    (fun i (r, m) ->
      if i < top then
        Printf.printf "%-8s %9.4f %7.2f %-6s %-18s %s\n" (str "alg" m) r
          (Option.value ~default:Float.nan (num "bound" m))
          (str "bound_kind" m) (str "family" m) (str "file" m))
    rows;
  0

(* ---------- round ---------- *)

let read_round_instance file =
  let path, tasks =
    parsed file (Sap_io.Instance_io.round_instance_of_string (read_text_file file))
  in
  parsed file (Round.Instance.create path tasks)

let round_gen_cmd dir seed variants =
  let t = Lab.Corpus.generate_round ~dir ~seed ~variants () in
  Printf.printf "wrote %d round instances (%d families, seed %d) + %s to %s\n"
    (List.length t.Lab.Corpus.entries)
    (List.length Lab.Corpus.round_families)
    seed Lab.Corpus.manifest_file dir;
  0

let round_solve_cmd input algorithm output quiet =
  let inst = read_round_instance input in
  let solver =
    match Round.Solvers.find algorithm with
    | Some s -> s
    | None ->
        die "unknown round algorithm %S (have: %s)" algorithm
          (String.concat ", " Round.Solvers.names)
  in
  let t0 = Obs.Clock.monotonic_seconds () in
  let rounds = solver.Round.Solvers.solve inst in
  let dt = (Obs.Clock.monotonic_seconds () -. t0) *. 1000.0 in
  match Round.Checker.check inst rounds with
  | Error m ->
      Printf.eprintf "error: %s produced an infeasible packing: %s\n" algorithm m;
      1
  | Ok () ->
      if not quiet then
        Printf.printf "%s: %d tasks into %d rounds (certified LB %d) in %.1f ms\n"
          algorithm
          (Round.Instance.task_count inst)
          (List.length rounds)
          (Round.Lower_bound.certified inst)
          dt;
      output_string_to output (Sap_io.Instance_io.round_solution_to_string rounds);
      0

let round_check_cmd input solution_file =
  let inst = read_round_instance input in
  let rounds =
    parsed solution_file
      (Sap_io.Instance_io.round_solution_of_string ~tasks:inst.Round.Instance.tasks
         (read_text_file solution_file))
  in
  match Round.Checker.check inst rounds with
  | Ok () ->
      Printf.printf "OK: %d tasks packed into %d rounds\n"
        (Round.Instance.task_count inst)
        (List.length rounds);
      0
  | Error m ->
      Printf.printf "INFEASIBLE: %s\n" m;
      1

let round_lab_cmd dir output max_nodes gate quiet =
  let corpus = load_corpus dir in
  Obs.Metrics.enable ();
  let report = Lab.Round_lab.run ?max_nodes corpus in
  if not quiet then Format.printf "%a" Lab.Round_lab.pp_summary report;
  Option.iter
    (fun f -> Obs.Report.write_file f (Lab.Round_lab.report_json report))
    output;
  if gate then
    match Lab.Round_lab.gate_failures report with
    | [] -> 0
    | fails ->
        Printf.printf "round lab: GATE FAILED (%s)\n" (String.concat "; " fails);
        1
  else 0

(* ---------- cmdliner plumbing ---------- *)

open Cmdliner

(* One constructor per flag that several commands take; each command
   keeps its own help text. *)
let quiet_arg doc = Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let output_arg doc = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)

let seed_arg doc = Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let socket_opt doc = Arg.(opt (some string) None & info [ "socket" ] ~doc)

let solution_opt doc = Arg.(opt (some string) None & info [ "s"; "solution" ] ~doc)

let log_arg doc = Arg.(value & opt (some string) None & info [ "log" ] ~doc)

let max_nodes_arg doc = Arg.(value & opt (some int) None & info [ "max-nodes" ] ~doc)

let gate_arg doc = Arg.(value & flag & info [ "gate" ] ~doc)

let jobs_arg doc = Arg.(value & opt (some int) None & info [ "jobs" ] ~doc)

let timeout_ms_arg doc = Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~doc)

let input_opt doc = Arg.(opt (some string) None & info [ "i"; "input" ] ~doc)

let input_arg = Arg.required (input_opt "Instance file.")

(* The default and the doc's list come from the problem's registry. *)
let algorithm_arg default names =
  Arg.(value & opt string default
       & info [ "algorithm"; "a" ] ~doc:(String.concat " | " names))

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Bypass the server's solution cache.")

let corpus_arg =
  Arg.(required & opt (some string) None
       & info [ "corpus" ] ~doc:"Corpus directory holding a manifest.txt.")

let dir_arg =
  Arg.(required & opt (some string) None
       & info [ "dir" ] ~doc:"Corpus directory (created if missing).")

let variants_arg =
  Arg.(value & opt int 3 & info [ "variants" ] ~doc:"Instances per family.")

let gen_term =
  let profile =
    Arg.(value & opt string "uniform"
         & info [ "profile" ] ~doc:"uniform | valley | mountain | staircase | walk")
  in
  let edges = Arg.(value & opt int 12 & info [ "edges" ] ~doc:"Number of edges.") in
  let capacity =
    Arg.(value & opt int 32 & info [ "capacity" ] ~doc:"Capacity scale of the profile.")
  in
  let kind =
    Arg.(value & opt string "mixed"
         & info [ "kind" ] ~doc:"mixed | small | medium | large | memory")
  in
  let n = Arg.(value & opt int 30 & info [ "tasks" ] ~doc:"Number of tasks.") in
  Term.(const gen_cmd $ profile $ edges $ capacity $ kind $ n $ seed_arg "PRNG seed."
        $ output_arg "Output file.")

let solve_term =
  let parallel =
    Arg.(value & flag
         & info [ "parallel" ]
             ~doc:"Run the combine algorithm's three specialists in parallel \
                   domains (same placements, same counters — only the schedule \
                   changes).  Ignored by other algorithms.")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ]
             ~doc:"Write a machine-readable sap-stats v3 report (instance stats, \
                   per-part metrics, span tree with GC attribution, audit record) \
                   to this file.")
  in
  let audit =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"Print the per-solve audit record: LP upper bound, achieved \
                   weight, empirical approximation ratio, checker verdict and \
                   (for combine) the per-part contributions.")
  in
  let trace_chrome =
    Arg.(value & opt (some string) None
         & info [ "trace-chrome" ]
             ~doc:"Write the span tree as Chrome Trace Event JSON to this file; \
                   load it in chrome://tracing or ui.perfetto.dev.  Worker \
                   domains appear as separate tracks.")
  in
  Term.(const solve_cmd $ input_arg $ algorithm_arg "combine" Sap.Solvers.names
        $ output_arg "Solution file."
        $ quiet_arg "No stats on stdout."
        $ seed_arg "PRNG seed for randomized engines (LP rounding)." $ parallel
        $ stats_json $ audit $ trace_chrome)

let bench_diff_term =
  let old_file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OLD" ~doc:"Baseline stats report (JSON).")
  in
  let new_file =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"NEW" ~doc:"Fresh stats report to compare against OLD.")
  in
  let counter_tol =
    Arg.(value & opt float Obs.Diff.default_thresholds.Obs.Diff.counter_tol
         & info [ "counter-tol" ]
             ~doc:"Relative drift allowed on counters (0 = exact; counters are \
                   deterministic for a fixed seed).")
  in
  let float_tol =
    Arg.(value & opt float Obs.Diff.default_thresholds.Obs.Diff.float_tol
         & info [ "rel-tol" ]
             ~doc:"Relative drift allowed on float metrics (gauges, histogram \
                   sums/means).")
  in
  let time_factor =
    Arg.(value & opt float Obs.Diff.default_thresholds.Obs.Diff.time_factor
         & info [ "time-factor" ]
             ~doc:"Allowed slowdown factor for timing metrics (e.g. 1.5 fails \
                   when NEW is >50% slower).  0 (the default) skips timing \
                   metrics: wall time is not comparable across machines.")
  in
  let ignores =
    Arg.(value & opt_all string []
         & info [ "ignore" ]
             ~doc:"Dotted-path prefix to exclude (repeatable), e.g. \
                   metrics.gauges.")
  in
  let show_all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"List every compared metric, not just drifts.")
  in
  Term.(const bench_diff_cmd $ old_file $ new_file $ counter_tol $ float_tol
        $ time_factor $ ignores $ show_all)

let check_term =
  Term.(const check_cmd $ input_arg $ Arg.required (solution_opt "Solution file."))

let show_term =
  let max_height =
    Arg.(value & opt (some int) None & info [ "max-height" ] ~doc:"Clip rendering height.")
  in
  let svg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~doc:"Write an SVG to this file instead of ASCII.")
  in
  Term.(const show_cmd $ input_arg $ Arg.value (solution_opt "Solution file.")
        $ max_height $ svg)

let stats_term = Term.(const stats_cmd $ input_arg)

let serve_term =
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Serve framed requests on stdin/stdout instead of a socket \
                   (one session, exits at end of input).")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ]
             ~doc:"Worker domains in the solve pool (default: the \
                   recommended domain count).")
  in
  let queue =
    Arg.(value & opt (some int) None
         & info [ "queue" ]
             ~doc:"Job-queue high-water mark; past it, request admission \
                   blocks (backpressure).  Default: 4x workers.")
  in
  let cache_capacity =
    Arg.(value & opt int 1024
         & info [ "cache-capacity" ]
             ~doc:"LRU solution-cache entries; 0 disables caching.")
  in
  let default_timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "default-timeout-ms" ]
             ~doc:"Deadline applied to solve requests that carry none.")
  in
  let log =
    log_arg
      "Structured request log: one key=value line per response, appended to \
       FILE ('-' = stderr)."
  in
  Term.(const serve_cmd $ Arg.value (socket_opt "Unix-domain socket path.") $ stdio
        $ workers $ queue $ cache_capacity $ default_timeout_ms $ log
        $ quiet_arg "No banner on stderr.")

let batch_term =
  let files =
    Arg.(value & pos_all file []
         & info [] ~docv:"INSTANCE" ~doc:"Instance files to solve.")
  in
  let output_dir =
    Arg.(value & opt (some dir) None
         & info [ "o"; "output-dir" ]
             ~doc:"Write each solution to DIR/<instance>.sol.")
  in
  let want_stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Request the server's stats after the batch and print the \
                   JSON (request/cache/pool totals, server.* metrics).  With \
                   no instance files, only the stats JSON is printed.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Send a shutdown frame after the batch: the server drains \
                   in-flight work, acknowledges, and exits.")
  in
  Term.(const batch_cmd
        $ Arg.required (socket_opt "Socket of a running `sap_cli serve`.")
        $ files $ algorithm_arg "combine" Sap.Solvers.names $ seed_arg "PRNG seed."
        $ timeout_ms_arg "Per-request deadline." $ no_cache_arg $ output_dir
        $ want_stats $ shutdown
        $ quiet_arg "Only errors and stats output.")

let session_term =
  let input =
    input_opt
      "Base instance file: open a session on it, resolve once, close (a smoke \
       run with no deltas)."
  in
  let churn =
    Arg.(value & opt (some string) None
         & info [ "churn" ]
             ~doc:"A sap-churn v1 trace (from `lab gen --churn`): open a \
                   session on its base instance and replay its events as \
                   deltas.  Mutually exclusive with -i.")
  in
  let resolve_every =
    Arg.(value & opt int 1
         & info [ "resolve-every" ] ~docv:"N"
             ~doc:"Resolve after every N churn events (default 1).")
  in
  let cold =
    Arg.(value & flag
         & info [ "cold" ]
             ~doc:"Ask for cold resolves (every band repacked from scratch) — \
                   the baseline warm replays are compared against.")
  in
  Term.(const session_cmd
        $ Arg.required
            (socket_opt "Socket of a running `sap_cli serve` or `sap_cli route`.")
        $ Arg.value input $ churn $ resolve_every $ cold
        $ seed_arg "Per-band rounding seed for the session."
        $ output_arg
            "Write a sap-session-report v1 JSON (event/resolve totals, solve \
             ms, warm/repack counts) to this file."
        $ quiet_arg "Only errors on stderr.")

let route_term =
  let shards =
    Arg.(value & opt (some int) None
         & info [ "shards" ]
             ~doc:"Spawn N `sap_cli serve` shard children (respawned on \
                   exit, shut down gracefully at the end).")
  in
  let shard_sockets =
    Arg.(value & opt_all string []
         & info [ "shard" ] ~docv:"PATH"
             ~doc:"Route to a pre-started shard on this socket (repeatable; \
                   external shards are reconnected to but never spawned or \
                   terminated).")
  in
  let shard_dir =
    Arg.(value & opt (some string) None
         & info [ "shard-dir" ]
             ~doc:"Directory for spawned shards' sockets (default: a fresh \
                   temp directory).")
  in
  let vnodes =
    Arg.(value & opt int Router.default_config.Router.vnodes
         & info [ "vnodes" ]
             ~doc:"Virtual nodes per shard on the consistent-hash ring.")
  in
  let shard_workers =
    Arg.(value & opt (some int) None
         & info [ "shard-workers" ] ~doc:"`--workers` for spawned shards.")
  in
  let shard_queue =
    Arg.(value & opt (some int) None
         & info [ "shard-queue" ] ~doc:"`--queue` for spawned shards.")
  in
  let shard_cache =
    Arg.(value & opt int 1024
         & info [ "shard-cache-capacity" ]
             ~doc:"`--cache-capacity` for spawned shards.")
  in
  let shard_timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "shard-default-timeout-ms" ]
             ~doc:"`--default-timeout-ms` for spawned shards.")
  in
  let log =
    log_arg
      "Structured lifecycle log: one key=value line per shard event, appended \
       to FILE ('-' = stderr)."
  in
  Term.(const route_cmd
        $ Arg.required (socket_opt "Front Unix-domain socket to listen on.")
        $ shards $ shard_sockets $ shard_dir $ vnodes $ shard_workers $ shard_queue
        $ shard_cache $ shard_timeout_ms $ log $ quiet_arg "No banner on stderr.")

let loadgen_term =
  let rps =
    Arg.(value & opt float Lab.Loadgen.default_config.Lab.Loadgen.rps
         & info [ "rps" ] ~doc:"Target offered rate, requests/second.")
  in
  let duration =
    Arg.(value & opt float Lab.Loadgen.default_config.Lab.Loadgen.duration
         & info [ "duration" ]
             ~doc:"Run length in seconds (rps x duration requests total).")
  in
  let connections =
    Arg.(value & opt int Lab.Loadgen.default_config.Lab.Loadgen.connections
         & info [ "connections" ] ~doc:"Persistent pipelined connections.")
  in
  let profile =
    Arg.(value & opt string Lab.Loadgen.default_config.Lab.Loadgen.profile
         & info [ "profile" ]
             ~doc:"Task-mix profile: any path family of the ratio-lab corpus \
                   generator.")
  in
  let distinct =
    Arg.(value & opt int Lab.Loadgen.default_config.Lab.Loadgen.distinct
         & info [ "distinct" ] ~doc:"Distinct instances cycled through the run.")
  in
  let no_scrape =
    Arg.(value & flag
         & info [ "no-scrape" ] ~doc:"Skip the mid-run live stats scrape.")
  in
  let sweep =
    Arg.(value & opt (some string) None
         & info [ "sweep" ] ~docv:"LO:HI:STEP"
             ~doc:"Saturation sweep: step the offered rate from LO to HI by \
                   STEP rps, stopping once achieved throughput falls behind \
                   offered; reports the knee as sap-loadgen-sweep v1 JSON \
                   (--rps is ignored).")
  in
  let sweep_threshold =
    Arg.(value & opt float 0.9
         & info [ "sweep-threshold" ]
             ~doc:"A sweep point saturates when achieved < threshold x \
                   offered.")
  in
  Term.(const loadgen_cmd
        $ Arg.required (socket_opt "Socket of a running `sap_cli serve`.")
        $ rps $ duration $ connections $ profile $ distinct
        $ algorithm_arg "combine" Sap.Solvers.names
        $ seed_arg "Instance-mix PRNG seed."
        $ timeout_ms_arg "Per-request deadline sent on the wire." $ no_cache_arg
        $ no_scrape
        $ sweep $ sweep_threshold
        $ output_arg
            "Write the report JSON (sap-loadgen v1, or sap-loadgen-sweep v1 \
             with --sweep) here instead of stdout."
        $ quiet_arg "No summary on stderr.")

let lab_gen_term =
  let churn =
    Arg.(value & opt (some int) None
         & info [ "churn" ] ~docv:"STEPS"
             ~doc:"Additionally write a deterministic sap-churn v1 trace with \
                   STEPS add/remove/resize events to DIR/churn.trace (replay \
                   it with `sap_cli session --churn`).")
  in
  Term.(const lab_gen_cmd $ dir_arg $ seed_arg "Corpus PRNG seed." $ variants_arg
        $ churn)

let lab_run_term =
  let jobs =
    jobs_arg
      "Worker domains for the branch-and-bound subtree fan-out (default: \
       sequential)."
  in
  Term.(const lab_run_cmd $ corpus_arg
        $ output_arg "Write the sap-ratio v1 report JSON here."
        $ max_nodes_arg
            "Branch-and-bound node budget per oracle solve; past it the row \
             degrades to an LP upper bound (bound_kind = lp)."
        $ jobs
        $ gate_arg
            "Exit 1 when any exact-oracle ratio exceeds its proven bound or the \
             branch and bound disagrees with the brute oracle."
        $ quiet_arg "No summary table.")

let lab_hunt_term =
  let alg =
    Arg.(value & opt string Lab.Hunt.default_config.Lab.Hunt.alg
         & info [ "alg" ]
             ~doc:
               ("Algorithm to hunt: " ^ String.concat " | " Lab.Hunt.algs ^ "."))
  in
  let generations =
    Arg.(value & opt int Lab.Hunt.default_config.Lab.Hunt.generations
         & info [ "generations" ] ~doc:"Evolutionary generations.")
  in
  let population =
    Arg.(value & opt int Lab.Hunt.default_config.Lab.Hunt.population
         & info [ "population" ] ~doc:"Candidates evaluated per generation.")
  in
  let budget =
    Arg.(value & opt int Lab.Hunt.default_config.Lab.Hunt.max_nodes
         & info [ "budget" ]
             ~doc:"Branch-and-bound node budget per candidate evaluation; \
                   past it the score degrades to a certified lower bound and \
                   the candidate cannot enter the hall of fame.")
  in
  let hof_size =
    Arg.(value & opt int Lab.Hunt.default_config.Lab.Hunt.hof_size
         & info [ "hof-size" ] ~doc:"Hall-of-fame capacity.")
  in
  let jobs =
    jobs_arg
      "Worker domains for candidate evaluation (default: sequential; results \
       are identical either way)."
  in
  let hof_dir =
    Arg.(value & opt (some string) None
         & info [ "hof" ]
             ~doc:"Write hall-of-fame instance files into this directory \
                   (created if missing).")
  in
  Term.(const lab_hunt_cmd $ alg $ seed_arg "Hunt PRNG seed." $ generations
        $ population $ budget $ hof_size $ jobs
        $ output_arg "Write the sap-hunt v1 report JSON here." $ hof_dir
        $ quiet_arg "No summary.")

let lab_worst_term =
  let report =
    Arg.(required & opt (some string) None
         & info [ "report" ] ~doc:"A sap-ratio v1 report (from lab run -o).")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"How many rows to show.")
  in
  Term.(const lab_worst_cmd $ report $ top)

let lab_cmd =
  Cmd.group
    (Cmd.info "lab"
       ~doc:"Empirical approximation-ratio lab: corpus generation, \
             exact-oracle ratio measurement, worst-instance mining")
    [
      Cmd.v
        (Cmd.info "gen" ~doc:"Generate a versioned instance corpus")
        lab_gen_term;
      Cmd.v
        (Cmd.info "run"
           ~doc:"Measure every algorithm's ratio against the exact oracle over \
                 a corpus")
        lab_run_term;
      Cmd.v
        (Cmd.info "hunt"
           ~doc:"Evolve adversarial instances that maximize OPT/ALG for one \
                 algorithm; freeze the hall of fame for the corpus")
        lab_hunt_term;
      Cmd.v
        (Cmd.info "worst" ~doc:"Show the worst-ratio instances of a report")
        lab_worst_term;
    ]

let round_gen_term =
  Term.(const round_gen_cmd $ dir_arg $ seed_arg "Corpus PRNG seed." $ variants_arg)

let round_solve_term =
  Term.(const round_solve_cmd $ input_arg $ algorithm_arg "bands" Round.Solvers.names
        $ output_arg "Write the round-solution v1 here (default: stdout)."
        $ quiet_arg "No summary line.")

let round_check_term =
  Term.(const round_check_cmd $ input_arg
        $ Arg.required (solution_opt "A round-solution v1 file."))

let round_lab_term =
  Term.(const round_lab_cmd $ corpus_arg
        $ output_arg "Write the round-report v1 JSON here."
        $ max_nodes_arg
            "Branch-and-bound node budget per oracle solve; past it the row's \
             bound degrades from exact to certified."
        $ gate_arg
            "Exit 1 when any solver goes below the certified lower bound (or \
             packs infeasibly), the branch and bound disagrees with the brute \
             oracle, or bands beats first-fit on no family."
        $ quiet_arg "No summary table.")

let round_cmd =
  Cmd.group
    (Cmd.info "round"
       ~doc:"ROUND-SAP: pack every task into the minimum number of capacity \
             rounds (the second problem on the shared substrate)")
    [
      Cmd.v
        (Cmd.info "gen" ~doc:"Generate the deterministic round corpus")
        round_gen_term;
      Cmd.v
        (Cmd.info "solve"
           ~doc:"Solve one round-instance v1 file; print or write the packing")
        round_solve_term;
      Cmd.v
        (Cmd.info "check" ~doc:"Verify a round-solution against its instance")
        round_check_term;
      Cmd.v
        (Cmd.info "lab"
           ~doc:"Measure every round solver against the certified lower bound \
                 over a corpus")
        round_lab_term;
    ]

let cmds =
  [
    Cmd.v (Cmd.info "gen" ~doc:"Generate a random instance") gen_term;
    Cmd.v (Cmd.info "solve" ~doc:"Solve an instance") solve_term;
    Cmd.v (Cmd.info "check" ~doc:"Verify a solution") check_term;
    Cmd.v (Cmd.info "show" ~doc:"Render an instance or solution") show_term;
    Cmd.v (Cmd.info "stats" ~doc:"Describe an instance") stats_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Run the persistent solve service (worker pool + solution cache)")
      serve_term;
    Cmd.v
      (Cmd.info "batch"
         ~doc:"Submit instance files to a running serve; collect solutions and stats")
      batch_term;
    Cmd.v
      (Cmd.info "session"
         ~doc:"Open an online session against a running serve or route and \
               replay a churn trace (incremental re-solves, client-side \
               verification)")
      session_term;
    Cmd.v
      (Cmd.info "route"
         ~doc:"Consistent-hash front router over N solve-shard processes \
               (spawn + lifecycle, cache-affine fan-out, respawn on exit)")
      route_term;
    Cmd.v
      (Cmd.info "loadgen"
         ~doc:"Open-loop fixed-RPS load generator against a running serve; \
               reports offered vs achieved RPS and latency percentiles")
      loadgen_term;
    Cmd.v
      (Cmd.info "bench-diff"
         ~doc:"Compare two stats reports metric-by-metric; exit 1 on regression")
      bench_diff_term;
    lab_cmd;
    round_cmd;
  ]

(* [~catch:false]: a command's exception reaches this handler instead of
   cmdliner's exit-125 "internal error". *)
let () =
  let info =
    Cmd.info "sap_cli" ~version:"1.0"
      ~doc:"Storage allocation problem toolkit (Bar-Yehuda-Beder-Rawitz reproduction)"
  in
  match Cmd.eval' ~catch:false (Cmd.group info cmds) with
  | code -> exit code
  | exception (Failure m | Invalid_argument m | Sys_error m) ->
      Printf.eprintf "error: %s\n" m;
      exit 2
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s%s: %s\n" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e);
      exit 2
