(* The per-layer metrics of a traced run.  Busy and self time come from the
   bench's layer spans (see [Replay.layers]); work counts from the
   counters the libraries already keep; server-side numbers from deltas
   between two [stats] scrapes of the child.  Every workload reports every
   metric, so a layer a workload does not reach reads 0. *)

module M = Obs.Metrics

type server = {
  queue : M.histogram_summary;
  solve : M.histogram_summary;
  total : M.histogram_summary;
  hit_ratio : float;
  completed : int;
  errors : int;
}

type session = {
  mutable resolves : int;
  mutable repacked : int;
  mutable warm_seeded : int;
}

(* ---------- stats scrapes ---------- *)

let rec field path (j : Obs.Json.t) =
  match (path, j) with
  | [], _ -> Some j
  | k :: rest, Obj kvs -> Option.bind (List.assoc_opt k kvs) (field rest)
  | _ -> None

let int_field path j =
  match field path j with Some (Obs.Json.Int i) -> i | _ -> 0

let hist_field name j =
  match field [ "metrics"; "histograms"; name ] j with
  | Some h -> Option.value (M.summary_of_json h) ~default:M.empty_summary
  | None -> M.empty_summary

let server_delta ~before ~after =
  let hist name = Perf_metrics.hist_delta (hist_field name before) (hist_field name after) in
  let delta path = int_field path after - int_field path before in
  let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
  {
    queue = hist "server.latency.queue";
    solve = hist "server.latency.solve";
    total = hist "server.latency.total";
    hit_ratio = Ctx.ratio (float_of_int hits) (float_of_int (hits + misses));
    completed = delta [ "metrics"; "counters"; "server.pool.completed" ];
    errors = delta [ "requests"; "errors" ];
  }

let quantile_ms h q = if h.M.count = 0 then 0.0 else 1000.0 *. M.quantile h q

(* ---------- the metric set ---------- *)

let report (ctx : Ctx.t) ?server ?session ?(client_p50_ms = 0.0) () =
  let times = Perf_metrics.layer_times ~is_layer:Replay.is_layer (Obs.Trace.roots ()) in
  let busy name =
    match List.assoc_opt name times with Some t -> t.Perf_metrics.busy | None -> 0.0
  in
  let counters = (M.snapshot ()).M.counters in
  let count name = float_of_int (Option.value (List.assoc_opt name counters) ~default:0) in
  let per_unit ~scale a b = scale *. Ctx.ratio a b in
  let m = Ctx.metric ctx in
  let tally = Replay.tally in
  let dp_states = count "elevator.dp_states" in
  let iterations = count "simplex.iterations" in
  let cells = count "simplex.pivots_cells_touched" in
  let trials = count "lp_rounding.trials" in
  m "sap.combine.busy_s" "s" (busy "sap.combine");
  m "sap.small.busy_s" "s" (busy "sap.small");
  m "sap.medium.busy_s" "s" (busy "sap.medium");
  m "sap.large.busy_s" "s" (busy "sap.large");
  m "sap.elevator.busy_s" "s" (busy "sap.elevator");
  m "sap.elevator.dp_states" "count" dp_states;
  m "sap.elevator.ns_per_state" "ns" (per_unit ~scale:1e9 (busy "sap.elevator") dp_states);
  m "sap.elevator.exact_ratio" "ratio"
    (Ctx.ratio (float_of_int tally.exact_bands) (float_of_int tally.elevator_bands));
  m "lp.ufpp_lp.busy_s" "s" (busy "lp.ufpp_lp");
  m "lp.simplex.iterations" "count" iterations;
  m "lp.simplex.cells_touched" "count" cells;
  m "lp.simplex.cells_per_pivot" "count" (Ctx.ratio cells iterations);
  m "lp.simplex.ns_per_cell" "ns" (per_unit ~scale:1e9 (busy "lp.ufpp_lp") cells);
  m "lp.simplex.warm_restarts" "count" (count "simplex.warm_restarts");
  m "lp.simplex.warm_pivots_saved" "count" (count "simplex.warm_pivots_saved");
  m "ufpp.lp_rounding.busy_s" "s" (busy "ufpp.lp_rounding");
  m "ufpp.lp_rounding.trials" "count" trials;
  m "ufpp.lp_rounding.improvement_ratio" "ratio"
    (Ctx.ratio (count "lp_rounding.improvements") trials);
  m "dsa.strip_transform.busy_s" "s" (busy "dsa.strip_transform");
  m "dsa.strip_transform.loss_fraction" "ratio"
    (Ctx.ratio tally.loss_sum (float_of_int tally.strip_bands));
  m "rects.rect_mwis.busy_s" "s" (busy "rects.rect_mwis");
  m "rects.rect_mwis.branch_nodes" "count" (count "rect_mwis.branch_nodes");
  m "core.checker.busy_s" "s" (busy "core.checker");
  m "core.checker.ns_per_task" "ns"
    (per_unit ~scale:1e9 (busy "core.checker") (float_of_int tally.checked_tasks));
  m "server.protocol.decode_busy_s" "s" (busy "server.protocol.decode");
  m "server.protocol.encode_busy_s" "s" (busy "server.protocol.encode");
  m "server.protocol.client_decode_busy_s" "s" (busy "server.protocol.client_decode");
  m "server.fingerprint.busy_s" "s" (busy "server.fingerprint");
  m "server.fingerprint.ns_per_task" "ns"
    (per_unit ~scale:1e9 (busy "server.fingerprint")
       (float_of_int tally.fingerprinted_tasks));
  let sv f = match server with Some s -> f s | None -> 0.0 in
  m "server.cache.hit_ratio" "ratio" (sv (fun s -> s.hit_ratio));
  List.iter
    (fun (phase, h) ->
      m (Printf.sprintf "server.latency.%s_p50_ms" phase) "ms" (sv (fun s -> quantile_ms (h s) 0.5));
      m (Printf.sprintf "server.latency.%s_p99_ms" phase) "ms" (sv (fun s -> quantile_ms (h s) 0.99)))
    [ ("queue", fun s -> s.queue); ("solve", fun s -> s.solve); ("total", fun s -> s.total) ];
  m "server.transport.overhead_p50_ms" "ms"
    (sv (fun s -> client_p50_ms -. quantile_ms s.total 0.5));
  m "server.pool.completed" "count" (sv (fun s -> float_of_int s.completed));
  m "server.errors" "count" (sv (fun s -> float_of_int s.errors));
  let ss f = match session with Some s -> f s | None -> 0.0 in
  m "server.session.resolve_busy_s" "s" (busy "server.session.resolve");
  m "server.session.repacked_per_resolve" "count"
    (ss (fun s -> Ctx.ratio (float_of_int s.repacked) (float_of_int s.resolves)));
  m "server.session.warm_ratio" "ratio"
    (ss (fun s -> Ctx.ratio (float_of_int s.warm_seeded) (float_of_int s.repacked)));
  (* Share of combine time its part spans account for: what is left is
     the split and the final pick, the only sap code no layer span covers. *)
  let combine =
    List.assoc_opt "sap.combine" times
    |> Option.value ~default:{ Perf_metrics.busy = 0.0; self = 0.0; calls = 0 }
  in
  m "bench.self_coverage" "ratio"
    (Ctx.ratio (combine.busy -. combine.self) combine.busy);
  times

(* The traced run's span trees as a Chrome trace, plus the layer table. *)
let write_trace (ctx : Ctx.t) times =
  let base =
    Filename.concat Ctx.out_dir (Printf.sprintf "%s-seed%d" ctx.workload ctx.seed)
  in
  Obs.Report.write_file (base ^ ".trace.json") (Obs.Chrome_trace.of_current ());
  let row (name, (t : Perf_metrics.layer_time)) =
    ( name,
      Obs.Json.Obj
        [
          ("busy_s", Obs.Json.Float t.busy);
          ("self_s", Obs.Json.Float t.self);
          ("calls", Obs.Json.Int t.calls);
        ] )
  in
  Obs.Report.write_file (base ^ ".layers.json")
    (Obs.Json.Obj
       [
         ("workload", Obs.Json.String ctx.workload);
         ("seed", Obs.Json.Int ctx.seed);
         ("layers", Obs.Json.Obj (List.map row times));
         ("metrics", Obs.Metrics.snapshot_json ());
       ]);
  Printf.eprintf "perf: %-30s %12s %12s %8s\n" "layer" "busy_s" "self_s" "calls";
  List.iter
    (fun (name, (t : Perf_metrics.layer_time)) ->
      Printf.eprintf "perf: %-30s %12.6f %12.6f %8d\n" name t.busy t.self t.calls)
    times;
  Printf.eprintf "perf: trace written to %s.trace.json\n%!" base
