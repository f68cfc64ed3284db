(* CR — online-session churn replay: a deterministic single-task
   arrival/departure trace resolved warm (band-local repair + simplex
   warm starts) against the identical trace resolved cold (every band
   repacked from scratch).  The instance stacks eight bottleneck bands
   of 30 tasks each, so a cold resolve pays eight band LPs where a warm
   resolve pays one warm-seeded LP — the saving the session subsystem
   exists to buy.  The floor is on work, not wall time: the simplex
   cells ([simplex.pivots_cells_touched]) the cold pass spends must be
   at least [cells_floor] times the warm pass's.  Band-local repair
   alone buys about 8x, so the floor also trips when the warm LPs lose
   their warm start.  Cells and the shape of the run — events,
   resolves, bands repacked, warm-seeded LPs — land in exact counters,
   so a regression trips the bench-diff gate on any machine; wall time
   lands in *seconds* histograms and the speedup gauge. *)

module Session = Sap_server.Session
module Task = Core.Task

let h_cold = Obs.Metrics.histogram "bench.cr.cold_seconds"

let h_warm = Obs.Metrics.histogram "bench.cr.warm_seconds"

let g_speedup = Obs.Metrics.gauge "bench.cr.speedup"

let c_events = Obs.Metrics.counter "bench.cr.events"

let c_resolves = Obs.Metrics.counter "bench.cr.resolves"

let c_warm_seeded = Obs.Metrics.counter "bench.cr.warm_seeded"

let c_repacked_warm = Obs.Metrics.counter "bench.cr.repacked_warm"

let c_repacked_cold = Obs.Metrics.counter "bench.cr.repacked_cold"

let c_scheduled = Obs.Metrics.counter "bench.cr.scheduled_final"

let c_cells_cold = Obs.Metrics.counter "bench.cr.cells_cold"

let c_cells_warm = Obs.Metrics.counter "bench.cr.cells_warm"

let m_cells = Obs.Metrics.counter "simplex.pivots_cells_touched"

let cells_floor = 20

(* Two adjacent edges per capacity level: a task confined to one segment
   has that level as its bottleneck, so each level is its own
   strip-pack band and a single-task delta dirties exactly one band. *)
let levels = [| 4; 8; 16; 32; 64; 128; 256; 512 |]

let make_path () =
  Core.Path.create
    (Array.concat (List.map (fun c -> [| c; c |]) (Array.to_list levels)))

let make_task prng ~id ~level =
  let first_edge = 2 * level in
  let last_edge = first_edge + Util.Prng.int prng 2 in
  let demand = 1 + Util.Prng.int prng levels.(level) in
  let weight = 1.0 +. Util.Prng.float prng 99.0 in
  Task.make ~id ~first_edge ~last_edge ~demand ~weight

let base_tasks prng ~per_band =
  List.concat
    (List.init (Array.length levels) (fun level ->
         List.init per_band (fun k ->
             make_task prng ~id:((level * per_band) + k) ~level)))

(* The trace alternates arrival and departure of the same task, walking
   the bands round-robin: every event is a single-task delta against one
   band, and the instance returns to the base after each pair. *)
type event = Arrive of Task.t | Depart of int

let make_trace prng ~first_id ~pairs =
  List.concat
    (List.init pairs (fun i ->
         let id = first_id + i in
         let j = make_task prng ~id ~level:(i mod Array.length levels) in
         [ Arrive j; Depart id ]))

let apply sess = function
  | Arrive j -> Session.add_task sess j
  | Depart id -> Session.remove_task sess id

(* Replay the trace, timing only the per-delta resolves and counting
   their simplex cells (the initial full solve is common to both
   passes).  Every resolve is checker-verified inside [Session.resolve];
   an [Error] here is a bug, not a measurement. *)
let run_pass ~cold ~seed path base trace =
  let sess =
    match Session.create ~seed path base with
    | Ok s -> s
    | Error m -> failwith ("cr: session create failed: " ^ m)
  in
  (match Session.resolve ~cold:true sess with
  | Ok _ -> ()
  | Error m -> failwith ("cr: initial resolve failed: " ^ m));
  let total = ref 0.0 and cells = ref 0 in
  let warm_seeded = ref 0 and repacked = ref 0 and scheduled = ref 0 in
  List.iter
    (fun ev ->
      (match apply sess ev with
      | Ok () -> ()
      | Error m -> failwith ("cr: delta failed: " ^ m));
      let cells0 = Obs.Metrics.counter_value m_cells in
      let (_, s), dt =
        Bench_util.timed (fun () ->
            match Session.resolve ~cold sess with
            | Ok r -> r
            | Error m -> failwith ("cr: resolve failed: " ^ m))
      in
      total := !total +. dt;
      cells := !cells + Obs.Metrics.counter_value m_cells - cells0;
      warm_seeded := !warm_seeded + s.Session.warm_seeded;
      repacked := !repacked + s.Session.repacked;
      scheduled := s.Session.scheduled)
    trace;
  Session.close sess;
  (!total, !cells, !warm_seeded, !repacked, !scheduled)

let run () =
  Bench_util.section "CR  online-session churn (warm repair vs cold re-solve)";
  let prng = Util.Prng.create 11 in
  let path = make_path () in
  let per_band = 30 in
  let base = base_tasks prng ~per_band in
  let trace =
    make_trace prng ~first_id:(Array.length levels * per_band) ~pairs:8
  in
  let n = List.length trace in
  (* The cells floor reads the simplex counter, so collect metrics for
     the two passes even when the harness runs without a stats report. *)
  let collecting = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let cold_dt, cold_cells, cold_warm, cold_repacked, cold_sched =
    Obs.Metrics.time h_cold (fun () ->
        run_pass ~cold:true ~seed:11 path base trace)
  in
  let warm_dt, warm_cells, warm_warm, warm_repacked, warm_sched =
    Obs.Metrics.time h_warm (fun () ->
        run_pass ~cold:false ~seed:11 path base trace)
  in
  if not collecting then Obs.Metrics.disable ();
  if cold_warm <> 0 then failwith "cr: cold pass warm-seeded an LP";
  if warm_warm <> n then
    failwith
      (Printf.sprintf "cr: warm pass seeded %d/%d resolves" warm_warm n);
  if warm_repacked <> n then
    failwith
      (Printf.sprintf "cr: warm pass repacked %d bands over %d single-band deltas"
         warm_repacked n);
  (* The final trace state equals the base instance, but warm and cold
     LPs may stop at different optimal vertices, so rounded placements
     (and thus scheduled counts) are not required to coincide — only
     checker validity and objective equality are, and those are asserted
     inside [Session.resolve] / the qcheck property.  Both counts are
     still deterministic, so both are gate-able. *)
  ignore cold_sched;
  let speedup = cold_dt /. warm_dt in
  let cells_ratio = float_of_int cold_cells /. float_of_int (max 1 warm_cells) in
  if cold_cells < cells_floor * warm_cells then
    failwith
      (Printf.sprintf
         "cr: cold resolves touched %d simplex cells, only %.1fx the warm pass's %d (floor %dx)"
         cold_cells cells_ratio warm_cells cells_floor);
  Obs.Metrics.add c_events n;
  Obs.Metrics.add c_resolves (2 * n);
  Obs.Metrics.add c_warm_seeded warm_warm;
  Obs.Metrics.add c_repacked_warm warm_repacked;
  Obs.Metrics.add c_repacked_cold cold_repacked;
  Obs.Metrics.add c_scheduled warm_sched;
  Obs.Metrics.add c_cells_cold cold_cells;
  Obs.Metrics.add c_cells_warm warm_cells;
  Obs.Metrics.set g_speedup speedup;
  Util.Table.print
    ~header:
      [ "pass"; "resolves"; "bands repacked"; "warm LPs"; "simplex cells"; "seconds"; "ms/resolve" ]
    [
      [
        "cold";
        string_of_int n;
        string_of_int cold_repacked;
        "0";
        string_of_int cold_cells;
        Util.Table.float_cell cold_dt;
        Util.Table.float_cell (1000.0 *. cold_dt /. float_of_int n);
      ];
      [
        "warm";
        string_of_int n;
        string_of_int warm_repacked;
        string_of_int warm_warm;
        string_of_int warm_cells;
        Util.Table.float_cell warm_dt;
        Util.Table.float_cell (1000.0 *. warm_dt /. float_of_int n);
      ];
    ];
  Printf.printf
    "\nwarm-vs-cold on single-task deltas: %.1fx fewer simplex cells, %.2fx faster\n%!"
    cells_ratio speedup
