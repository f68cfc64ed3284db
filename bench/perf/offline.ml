(* The offline workloads: [Combine.solve] (default config, one domain) in
   passes over a fixed set of 1000 instances, as a batch user would run it.

   - offline-medium: mixed demands on 28-edge walks with short spans, so
     the Elevator DP does nearly all the work; DP pruning shows here.
   - offline-small: small demands only, 400 tasks on 48-edge walks, so the
     Elevator and the rectangle MWIS see nothing and the time goes to the
     band LPs, the rounding and the strip transform; a simplex change
     shows here and should leave offline-medium unchanged.

   Each instance is solved once per pass and its time is the median over
   the passes, so a few seconds of a busy machine move one of its samples,
   not its time.  The fixed geometry (see [Ctx.reweight]) keeps the work
   the same across seeds. *)

module Task = Core.Task

(* Enough instances that p99 over them has ten beyond it, small enough
   that a pass takes about 4 s and a 20 s run makes five. *)
let count = 1000

(* An instance's geometry from its own generator. *)
let medium g =
  let path = Gen.Profiles.random_walk ~prng:g ~edges:28 ~start:48 ~max_step:12 ~min_cap:6 in
  (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n:40 ~max_span:6 ())

let small g =
  let path = Gen.Profiles.random_walk ~prng:g ~edges:48 ~start:256 ~max_step:96 ~min_cap:8 in
  (path, Gen.Workloads.small_tasks ~prng:g ~path ~n:400 ~delta:0.25 ())

let warmup = 16

let geometry_seed = 1_000_003

let instances geometry ~seed =
  let weights = Util.Prng.create seed in
  Array.init count (fun i ->
      let path, tasks = geometry (Util.Prng.create (geometry_seed + i)) in
      (path, Ctx.reweight weights tasks))

let solve (path, tasks) = Sap.Combine.solve path tasks

(* Set-up: generate the set and solve a few instances, so the heap has
   grown before timing starts. *)
let setup geometry ~seed =
  let t0 = Ctx.now () in
  let insts = instances geometry ~seed in
  for i = 0 to warmup - 1 do
    ignore (solve insts.(i))
  done;
  (insts, Ctx.now () -. t0)

(* Passes while the next one should end within [seconds] (at least one).
   Every solution is checker-verified, and each pass must place exactly
   the weight the first placed on every instance.  Returns each
   instance's median solve time, the passes run and the placed share. *)
let measure (ctx : Ctx.t) insts =
  let times = Array.make count [] in
  let weights = Array.make count Float.nan in
  let t_start = Ctx.now () in
  let passes = ref 0 and last = ref 0.0 in
  while !passes = 0 || Ctx.now () -. t_start +. !last <= ctx.seconds do
    let t_pass = Ctx.now () in
    Array.iteri
      (fun i ((path, _) as inst) ->
        let t0 = Ctx.now () in
        let sol = solve inst in
        times.(i) <- (Ctx.now () -. t0) :: times.(i);
        Ctx.attempt ctx;
        (match Core.Checker.sap_feasible path sol with
        | Ok () -> ()
        | Error m -> Ctx.violation ctx (Printf.sprintf "instance %d infeasible: %s" i m));
        let w = Core.Solution.sap_weight sol in
        if Float.is_nan weights.(i) then weights.(i) <- w
        else if weights.(i) <> w then
          Ctx.violation ctx
            (Printf.sprintf "instance %d placed %.17g, then %.17g" i weights.(i) w))
      insts;
    last := Ctx.now () -. t_pass;
    incr passes
  done;
  let offered = Array.fold_left (fun a (_, ts) -> a +. Task.weight_of ts) 0.0 insts in
  ( Array.map (fun ts -> Perf_metrics.median (Array.of_list ts)) times,
    !passes,
    Array.fold_left ( +. ) 0.0 weights /. offered )

(* One pass over the whole set through [Replay], each replay checked
   against the real solve. *)
let replay_pass (ctx : Ctx.t) insts =
  Array.iteri
    (fun i (path, tasks) ->
      match Replay.combine_checked path tasks with
      | Error m -> Ctx.violation ctx (Printf.sprintf "instance %d: %s" i m)
      | Ok sol -> (
          match Replay.check path sol with
          | Ok () -> ()
          | Error m -> Ctx.violation ctx (Printf.sprintf "instance %d infeasible: %s" i m)))
    insts

let run (ctx : Ctx.t) geometry =
  (* Only the last set is kept, so at most one is alive at a time. *)
  let s1 = snd (setup geometry ~seed:ctx.seed) in
  let s2 = snd (setup geometry ~seed:ctx.seed) in
  let insts, s3 = setup geometry ~seed:ctx.seed in
  let setup_s = Perf_metrics.median [| s1; s2; s3 |] in
  let times, passes, share = measure ctx insts in
  let ops = float_of_int count /. Array.fold_left ( +. ) 0.0 times in
  let l = Perf_metrics.latency times in
  let note = Format.asprintf "median of %d passes per instance, %a" passes Perf_metrics.pp_latency l in
  if not ctx.trace then begin
    Ctx.metric ctx "ops_per_s" "1/s" ops ~note;
    Ctx.metric ctx "p50_ms" "ms" l.p50_ms ~note;
    Ctx.metric ctx "p99_ms" "ms" l.p99_ms ~note;
    Ctx.metric ctx "placed_weight_share" "ratio" share ~note:"of offered weight";
    Ctx.metric ctx "setup_s" "s" setup_s ~note:"median of 3";
    Ctx.metric ctx "peak_rss_mb" "MB" (Ctx.peak_rss_mb "self") ~note:"bench process"
  end
  else begin
    Obs.Report.reset_all ();
    replay_pass ctx insts;
    let times = Layers.report ctx () in
    Ctx.metric ctx "bench.traced_ops_per_s" "1/s" ops;
    Ctx.metric ctx "bench.send_lag_p99_ms" "ms" 0.0;
    Ctx.metric ctx "bench.max_rps_at_slo" "1/s" 0.0;
    Layers.write_trace ctx times
  end
