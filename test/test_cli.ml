(* Integration tests of the sap_cli executable: the gen | stats | solve |
   check | show pipelines over temp files.  The dune rule declares the
   binary as a dependency, so it is available at ../bin/sap_cli.exe
   relative to the test's working directory. *)

(* dune runtest runs with cwd = _build/default/test; dune exec from the
   workspace root.  Probe both locations. *)
let cli =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") "sap_cli.exe";
      Filename.concat (Filename.concat "_build/default" "bin") "sap_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let case = Helpers.case

let run args =
  let cmd = Filename.quote_command cli args in
  Sys.command (cmd ^ " > /dev/null 2>&1")

(* Run and capture stdout (for --audit and bench-diff output checks). *)
let run_out ~out args =
  let cmd = Filename.quote_command cli args in
  Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out))

let with_tmp f =
  let dir = Filename.temp_file "sap_cli_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let gen_solve_check_roundtrip () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let inst = Filename.concat dir "inst.sap" in
        let sol = Filename.concat dir "sol.sap" in
        Alcotest.(check int) "gen" 0
          (run [ "gen"; "--profile"; "staircase"; "--edges"; "10"; "--tasks"; "20"; "-o"; inst ]);
        Alcotest.(check int) "stats" 0 (run [ "stats"; "-i"; inst ]);
        Alcotest.(check int) "solve" 0
          (run [ "solve"; "-i"; inst; "-a"; "combine"; "-q"; "-o"; sol ]);
        Alcotest.(check int) "check accepts" 0 (run [ "check"; "-i"; inst; "-s"; sol ]);
        Alcotest.(check int) "show" 0 (run [ "show"; "-i"; inst; "-s"; sol ]);
        let svg = Filename.concat dir "sol.svg" in
        Alcotest.(check int) "svg" 0
          (run [ "show"; "-i"; inst; "-s"; sol; "--svg"; svg ]);
        Alcotest.(check bool) "svg written" true (Sys.file_exists svg))

let check_rejects_corrupted () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let inst = Filename.concat dir "inst.sap" in
        let sol = Filename.concat dir "sol.sap" in
        Alcotest.(check int) "gen" 0
          (run [ "gen"; "--edges"; "6"; "--tasks"; "10"; "--kind"; "large"; "-o"; inst ]);
        Alcotest.(check int) "solve" 0
          (run [ "solve"; "-i"; inst; "-a"; "exact"; "-q"; "-o"; sol ]);
        (* Corrupt: push every placed task far above the capacities. *)
        let contents = Sap_io.Instance_io.read_file sol in
        let corrupted =
          String.split_on_char '\n' contents
          |> List.map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ "place"; id; _h ] -> Printf.sprintf "place %s 100000" id
                 | _ -> line)
          |> String.concat "\n"
        in
        Sap_io.Instance_io.write_file sol corrupted;
        let has_places =
          String.split_on_char '\n' corrupted
          |> List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "place")
        in
        if has_places then
          Alcotest.(check int) "check rejects" 1 (run [ "check"; "-i"; inst; "-s"; sol ]))

let solve_all_algorithms () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let inst = Filename.concat dir "inst.sap" in
        Alcotest.(check int) "gen" 0
          (run [ "gen"; "--edges"; "8"; "--tasks"; "12"; "-o"; inst ]);
        (* The default profile is uniform, so [sapu] runs too. *)
        List.iter
          (fun a ->
            Alcotest.(check int) ("solve " ^ a) 0
              (run [ "solve"; "-i"; inst; "-a"; a; "-q" ]))
          Sap.Solvers.names)

(* [exact] is the budgeted branch and bound: past the brute-force
   oracle's 16-task cap it still answers, with a checker-valid solution. *)
let solve_exact_past_brute_cap () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let inst = Filename.concat dir "inst.sap" in
        let sol = Filename.concat dir "sol.sap" in
        Alcotest.(check int) "gen" 0
          (run
             [ "gen"; "--profile"; "walk"; "--edges"; "12"; "--tasks"; "24";
               "--seed"; "5"; "-o"; inst ]);
        Alcotest.(check int) "solve -a exact" 0
          (run [ "solve"; "-i"; inst; "-a"; "exact"; "-q"; "-o"; sol ]);
        Alcotest.(check int) "check accepts" 0 (run [ "check"; "-i"; inst; "-s"; sol ]))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let solve_emits_stats_json () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let inst = Filename.concat dir "inst.sap" in
        let stats = Filename.concat dir "stats.json" in
        Alcotest.(check int) "gen" 0
          (run [ "gen"; "--profile"; "staircase"; "--edges"; "10"; "--tasks"; "24"; "-o"; inst ]);
        Alcotest.(check int) "solve" 0
          (run
             [ "solve"; "-i"; inst; "-a"; "combine"; "-q"; "--seed"; "7";
               "--stats-json"; stats ]);
        Alcotest.(check bool) "stats file written" true (Sys.file_exists stats);
        let s = Sap_io.Instance_io.read_file stats in
        let trimmed = String.trim s in
        Alcotest.(check bool) "object-shaped" true
          (String.length trimmed > 2
          && trimmed.[0] = '{'
          && trimmed.[String.length trimmed - 1] = '}');
        (* The report must expose the per-part weights and timings, the
           chosen part, the per-band Strip-Pack counters and the simplex
           iteration counts the issue asks for. *)
        List.iter
          (fun sub ->
            Alcotest.(check bool) (sub ^ " present") true (contains_sub s sub))
          [
            "sap-stats v3";
            "\"clock\"";
            "\"algorithm\"";
            "\"seed\": 7";
            "\"instance\"";
            "\"result\"";
            "\"audit\"";
            "\"lp_upper_bound\"";
            "\"empirical_ratio\"";
            "\"checker\"";
            "\"parts\"";
            "combine.weight.small";
            "combine.weight.medium";
            "combine.weight.large";
            "combine.part_seconds.small";
            "combine.chosen.";
            "small.bands";
            "simplex.iterations";
            "simplex.solves";
            "elevator.dp_states";
            "\"spans\"";
            "combine.solve";
            "small.strip_pack";
            "\"gc\"";
            "\"minor_words\"";
            "\"domain\"";
          ])

let solve_audit_output () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let inst = Filename.concat dir "inst.sap" in
        let out = Filename.concat dir "audit.txt" in
        Alcotest.(check int) "gen" 0
          (run [ "gen"; "--profile"; "staircase"; "--edges"; "10"; "--tasks"; "24"; "-o"; inst ]);
        Alcotest.(check int) "solve --audit" 0
          (run_out ~out [ "solve"; "-i"; inst; "-a"; "combine"; "-q"; "--audit" ]);
        let s = Sap_io.Instance_io.read_file out in
        List.iter
          (fun sub ->
            Alcotest.(check bool) (sub ^ " present") true (contains_sub s sub))
          [ "lp upper bound"; "empirical ratio"; "checker"; "feasible"; "parts" ];
        (* Non-combine algorithms get the generic certificate. *)
        Alcotest.(check int) "solve --audit firstfit" 0
          (run_out ~out [ "solve"; "-i"; inst; "-a"; "firstfit"; "-q"; "--audit" ]);
        let s = Sap_io.Instance_io.read_file out in
        Alcotest.(check bool) "generic ratio line" true
          (contains_sub s "empirical ratio"))

let solve_trace_chrome () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let inst = Filename.concat dir "inst.sap" in
        let trace = Filename.concat dir "trace.json" in
        Alcotest.(check int) "gen" 0
          (run [ "gen"; "--profile"; "staircase"; "--edges"; "10"; "--tasks"; "24"; "-o"; inst ]);
        Alcotest.(check int) "solve" 0
          (run
             [ "solve"; "-i"; inst; "-a"; "combine"; "-q"; "--parallel";
               "--trace-chrome"; trace ]);
        let s = Sap_io.Instance_io.read_file trace in
        (* Must be loadable JSON with the Trace Event envelope, and with
           --parallel the worker domains must land on distinct tracks. *)
        (match Obs.Json.of_string s with
        | Ok (Obs.Json.Obj fields) ->
            let events =
              match List.assoc_opt "traceEvents" fields with
              | Some (Obs.Json.List evs) -> evs
              | _ -> Alcotest.fail "traceEvents missing or not a list"
            in
            Alcotest.(check bool) "has events" true (events <> []);
            let tids =
              List.filter_map
                (fun ev ->
                  match ev with
                  | Obs.Json.Obj f -> (
                      match (List.assoc_opt "ph" f, List.assoc_opt "tid" f) with
                      | Some (Obs.Json.String "X"), Some (Obs.Json.Int t) -> Some t
                      | _ -> None)
                  | _ -> None)
                events
              |> List.sort_uniq compare
            in
            Alcotest.(check bool) "distinct worker tracks" true
              (List.length tids > 1)
        | Ok _ -> Alcotest.fail "chrome trace is not an object"
        | Error m -> Alcotest.failf "chrome trace does not parse: %s" m);
        List.iter
          (fun sub ->
            Alcotest.(check bool) (sub ^ " present") true (contains_sub s sub))
          [ "\"ph\""; "\"ts\""; "\"dur\""; "\"tid\""; "thread_name"; "combine.solve"; "\"gc\"" ])

(* ---------- bench-diff ---------- *)

let write_json file counters extra =
  let fields =
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
    ]
    @ extra
  in
  Sap_io.Instance_io.write_file file (Obs.Json.to_string_pretty (Obs.Json.Obj fields))

let bench_diff_exit_codes () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let old_f = Filename.concat dir "old.json" in
        let new_f = Filename.concat dir "new.json" in
        let out = Filename.concat dir "out.txt" in
        (* Identical reports: exit 0. *)
        write_json old_f [ ("dp.states", 100); ("simplex.iterations", 5) ] [];
        write_json new_f [ ("dp.states", 100); ("simplex.iterations", 5) ] [];
        Alcotest.(check int) "identical" 0 (run_out ~out [ "bench-diff"; old_f; new_f ]);
        (* Injected counter regression: exit 1, named in the table. *)
        write_json new_f [ ("dp.states", 150); ("simplex.iterations", 5) ] [];
        Alcotest.(check int) "regression" 1 (run_out ~out [ "bench-diff"; old_f; new_f ]);
        let s = Sap_io.Instance_io.read_file out in
        Alcotest.(check bool) "regression named" true
          (contains_sub s "metrics.counters.dp.states");
        (* ...unless the tolerance allows it. *)
        Alcotest.(check int) "within --counter-tol" 0
          (run_out ~out [ "bench-diff"; old_f; new_f; "--counter-tol"; "0.6" ]);
        (* Missing metric: exit 1. *)
        write_json new_f [ ("dp.states", 100) ] [];
        Alcotest.(check int) "missing metric" 1 (run_out ~out [ "bench-diff"; old_f; new_f ]);
        (* Timing: ignored by default, gated by --time-factor, faster is fine. *)
        let timed file t =
          write_json file
            [ ("dp.states", 100); ("simplex.iterations", 5) ]
            [ ("result", Obs.Json.Obj [ ("time_seconds", Obs.Json.Float t) ]) ]
        in
        timed old_f 1.0;
        timed new_f 10.0;
        Alcotest.(check int) "timing ungated" 0 (run_out ~out [ "bench-diff"; old_f; new_f ]);
        Alcotest.(check int) "timing regression" 1
          (run_out ~out [ "bench-diff"; old_f; new_f; "--time-factor"; "1.5" ]);
        timed new_f 0.5;
        Alcotest.(check int) "timing improvement" 0
          (run_out ~out [ "bench-diff"; old_f; new_f; "--time-factor"; "1.5" ]);
        (* Malformed input: exit 2. *)
        Sap_io.Instance_io.write_file new_f "{ not json";
        Alcotest.(check int) "malformed" 2 (run_out ~out [ "bench-diff"; old_f; new_f ]);
        Alcotest.(check int) "unreadable" 2
          (run_out ~out [ "bench-diff"; old_f; Filename.concat dir "nope.json" ]))

let bench_diff_baseline_self () =
  (* The committed CI baseline must always diff cleanly against itself —
     this also keeps the file parseable by our own parser. *)
  let baseline =
    List.find_opt Sys.file_exists
      [ "../bench/baseline.json"; "bench/baseline.json" ]
  in
  match baseline with
  | None -> Alcotest.skip ()
  | Some b ->
      if not (Sys.file_exists cli) then Alcotest.skip ()
      else Alcotest.(check int) "self-diff" 0 (run [ "bench-diff"; b; b ])

let unreadable_file_is_clean_error () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let out = Filename.concat dir "err.txt" in
        let missing = Filename.concat dir "nope.sap" in
        let expect_clean what args =
          Alcotest.(check int) what 2 (run_out ~out args);
          let s = Sap_io.Instance_io.read_file out in
          Alcotest.(check bool) (what ^ ": error prefix") true
            (contains_sub s "error: ");
          Alcotest.(check bool) (what ^ ": no backtrace") false
            (contains_sub s "Raised at")
        in
        expect_clean "solve missing" [ "solve"; "-i"; missing ];
        expect_clean "check missing" [ "check"; "-i"; missing; "-s"; missing ];
        expect_clean "show missing" [ "show"; "-i"; missing ];
        (* A directory fails the same way, not with a raw Sys_error. *)
        expect_clean "solve directory" [ "solve"; "-i"; dir ])

(* ---------- serve / batch over a Unix-domain socket ---------- *)

let rec wait_for cond n what =
  if cond () then ()
  else if n = 0 then Alcotest.failf "timed out waiting for %s" what
  else begin
    Unix.sleepf 0.05;
    wait_for cond (n - 1) what
  end

(* Run [f sock reap_nohang] against a `sap_cli serve` on DIR/srv.sock;
   a server still running afterwards is killed. *)
let with_serve dir f =
  let sock = Filename.concat dir "srv.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--socket"; sock; "-q" |] null null
      null
  in
  Unix.close null;
  let reaped = ref None in
  let reap_nohang () =
    match !reaped with
    | Some _ as s -> s
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> None
        | _, status ->
            reaped := Some status;
            !reaped)
  in
  Fun.protect
    ~finally:(fun () ->
      if reap_nohang () = None then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      wait_for (fun () -> Sys.file_exists sock) 200 "server socket";
      f sock reap_nohang)

let serve_batch_socket_smoke () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let insts =
          List.init 3 (fun i ->
              let f = Filename.concat dir (Printf.sprintf "inst%d.sap" i) in
              Alcotest.(check int) "gen" 0
                (run
                   [ "gen"; "--edges"; "6"; "--tasks"; "8"; "--seed";
                     string_of_int (100 + i); "-o"; f ]);
              f)
        in
        with_serve dir (fun sock reap_nohang ->
            let out = Filename.concat dir "batch.txt" in
            Alcotest.(check int) "batch" 0
              (run_out ~out
                 ([ "batch"; "--socket"; sock; "-o"; dir; "--stats"; "--shutdown" ]
                 @ insts));
            let s = Sap_io.Instance_io.read_file out in
            Alcotest.(check bool) "stats json printed" true
              (contains_sub s "sap-server-stats v2");
            List.iter
              (fun f ->
                let sol = f ^ ".sol" in
                Alcotest.(check bool) (Filename.basename sol ^ " written") true
                  (Sys.file_exists sol);
                Alcotest.(check int) (Filename.basename f ^ " checks") 0
                  (run [ "check"; "-i"; f; "-s"; sol ]))
              insts;
            (* --shutdown was acked, so the server must exit cleanly. *)
            wait_for (fun () -> reap_nohang () <> None) 200 "server exit";
            Alcotest.(check bool) "server exited 0" true
              (reap_nohang () = Some (Unix.WEXITED 0))))

(* `batch --stats` with no instance files is a stats probe: its stdout
   (and stderr) is exactly the server's stats JSON. *)
let batch_stats_probe () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        with_serve dir (fun sock _ ->
            let out = Filename.concat dir "stats.json" in
            Alcotest.(check int) "batch --stats" 0
              (run_out ~out [ "batch"; "--socket"; sock; "--stats" ]);
            match Obs.Json.of_string (Sap_io.Instance_io.read_file out) with
            | Ok (Obs.Json.Obj fields) ->
                Alcotest.(check bool) "server stats schema" true
                  (List.assoc_opt "schema" fields
                  = Some (Obs.Json.String "sap-server-stats v2"))
            | Ok _ -> Alcotest.fail "stats is not an object"
            | Error m -> Alcotest.failf "output is not only the stats JSON: %s" m))

let unknown_algorithm_fails () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else
    with_tmp (fun dir ->
        let inst = Filename.concat dir "inst.sap" in
        let out = Filename.concat dir "err.txt" in
        Alcotest.(check int) "gen" 0 (run [ "gen"; "-o"; inst ]);
        Alcotest.(check int) "bad algo" 2
          (run_out ~out [ "solve"; "-i"; inst; "-a"; "nope" ]);
        Alcotest.(check string) "lists the registry"
          (Printf.sprintf "error: unknown algorithm \"nope\" (have: %s)\n"
             (String.concat ", " Sap.Solvers.names))
          (Sap_io.Instance_io.read_file out))

let () =
  Alcotest.run "cli"
    [
      ( "pipelines",
        [
          case "gen/solve/check/show" gen_solve_check_roundtrip;
          case "check rejects corrupted" check_rejects_corrupted;
          case "all algorithms" solve_all_algorithms;
          case "exact past the brute cap" solve_exact_past_brute_cap;
          case "stats json" solve_emits_stats_json;
          case "unknown algorithm" unknown_algorithm_fails;
          case "solve --audit" solve_audit_output;
          case "solve --trace-chrome" solve_trace_chrome;
          case "unreadable file" unreadable_file_is_clean_error;
        ] );
      ( "server",
        [
          case "serve/batch socket smoke" serve_batch_socket_smoke;
          case "batch --stats probe" batch_stats_probe;
        ] );
      ( "bench-diff",
        [
          case "exit codes" bench_diff_exit_codes;
          case "baseline self-diff" bench_diff_baseline_self;
        ] );
    ]
