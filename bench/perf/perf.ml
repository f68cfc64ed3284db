(* The repository benchmark: one workload per run.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones (BENCHMARK.json lists both); one line per metric on
   stdout, then the result as one JSON line, which is also written to
   _perf/.  Every output is checked; exit 1 when one is wrong.  Normally
   run through run.sh, which builds the solver CLI and this program
   first.  See README.md. *)

let workloads =
  [
    ("offline-medium", fun ctx -> Offline.run ctx Offline.medium);
    ("offline-small", fun ctx -> Offline.run ctx Offline.small);
    ("serve-mix", Service.serve_mix);
    ("session-churn", Service.session_churn);
  ]

let usage () =
  Printf.eprintf
    "usage: perf.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ())
    opts;
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (* The CLI is built beside this program: _build/default/{bench/perf,bin}. *)
  let sap_cli =
    Filename.concat
      (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
      "bin/sap_cli.exe"
  in
  {
    Ctx.workload;
    seed = int "seed";
    seconds = float_of_int seconds;
    trace = trace = 1;
    sap_cli;
    attempted = 0;
    failed = 0;
    violations = [];
    metrics = [];
  }

let () =
  let ctx = parse Sys.argv in
  (* A dead peer must surface as EPIPE on write, not kill the run; a stop
     request exits through [at_exit], which reaps any child server. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  if not (Sys.file_exists Ctx.out_dir) then Sys.mkdir Ctx.out_dir 0o755;
  (* The traced run keeps the bench's spans and the libraries' counters;
     each workload resets them before the part it attributes. *)
  if ctx.trace then Obs.Report.enable_all ();
  (try (List.assoc ctx.workload workloads) ctx
   with Failure m ->
     Printf.eprintf "perf: %s: %s\n%!" ctx.workload m;
     exit 1);
  let result =
    {
      Perf_metrics.correct = ctx.violations = [];
      attempted = ctx.attempted;
      failed = ctx.failed;
      metrics = List.rev_map fst ctx.metrics;
    }
  in
  List.iter
    (fun ((m : Perf_metrics.metric), note) ->
      Printf.printf "%s %s %.6g %s%s\n" ctx.workload m.name m.value m.unit_
        (if note = "" then "" else "  [" ^ note ^ "]"))
    (List.rev ctx.metrics);
  List.iter (fun v -> Printf.printf "violation: %s\n" v) (List.rev ctx.violations);
  let json = Perf_metrics.result_json result in
  Obs.Report.write_file
    (Filename.concat Ctx.out_dir
       (Printf.sprintf "%s-seed%d%s.json" ctx.workload ctx.seed
          (if ctx.trace then "-trace" else "")))
    json;
  print_endline (Obs.Json.to_string json);
  if not result.correct then exit 1
