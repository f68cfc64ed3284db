(* SRV — in-process solve-service throughput: one batch driven cold
   (every request reaches a solver) and the identical batch warm (every
   request must be served from the LRU cache).  Wall time lands in the
   *seconds*-named histograms, which the bench-diff gate treats as timing
   (compared only under --time-factor); the deterministic shape of the
   run — requests solved, warm-pass hits — lands in counters so a cache
   or pool regression that changes behaviour (not just speed) trips the
   gate exactly.  The server's own [server.*] metrics ride along in the
   same stats report; [server.queue_depth] is schedule-dependent and is
   --ignore'd by the CI gate. *)

module P = Sap_server.Protocol
module Server = Sap_server.Server

let h_cold = Obs.Metrics.histogram "bench.server.cold_seconds"

let h_warm = Obs.Metrics.histogram "bench.server.warm_seconds"

let g_cold_rps = Obs.Metrics.gauge "bench.server.cold_rps"

let g_warm_rps = Obs.Metrics.gauge "bench.server.warm_rps"

let c_solved = Obs.Metrics.counter "bench.server.solved"

let c_warm_hits = Obs.Metrics.counter "bench.server.warm_hits"

let instances ~count seed =
  List.init count (fun i ->
      let g = Util.Prng.create (seed + (31 * i)) in
      let path =
        Gen.Profiles.random_walk ~prng:g ~edges:24 ~start:48 ~max_step:12
          ~min_cap:6
      in
      let tasks = Gen.Workloads.mixed_tasks ~prng:g ~path ~n:24 () in
      (path, tasks))

(* Submit the whole batch before forcing anything — the pool solves
   across requests, which is the throughput being measured — and count
   the responses that came from the cache.  Every response is
   checker-validated: a fast server returning garbage is not a result. *)
let run_pass srv insts =
  let pendings =
    List.mapi
      (fun i (path, tasks) ->
        Server.submit srv
          (P.Solve { id = i; params = P.default_solve_params; path; tasks }))
      insts
  in
  let hits = ref 0 in
  List.iteri
    (fun i p ->
      match p () with
      | P.Solved { summary; solution; _ } ->
          let path, _ = List.nth insts i in
          (match Core.Checker.sap_feasible path solution with
          | Ok () -> ()
          | Error m -> failwith ("srv: infeasible response: " ^ m));
          if summary.P.cached then incr hits
      | _ -> failwith "srv: request did not solve")
    pendings;
  !hits

let run () =
  Bench_util.section "SRV  solve-service throughput (cold vs warm cache)";
  let insts = instances ~count:48 7 in
  let n = List.length insts in
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 4 }
      ()
  in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let cold_hits, cold_dt =
    Bench_util.timed (fun () -> Obs.Metrics.time h_cold (fun () -> run_pass srv insts))
  in
  if cold_hits <> 0 then failwith "srv: cold pass unexpectedly hit the cache";
  let warm_hits, warm_dt =
    Bench_util.timed (fun () -> Obs.Metrics.time h_warm (fun () -> run_pass srv insts))
  in
  if warm_hits <> n then
    failwith
      (Printf.sprintf "srv: warm pass hit the cache %d/%d times" warm_hits n);
  Obs.Metrics.add c_solved (2 * n);
  Obs.Metrics.add c_warm_hits warm_hits;
  Obs.Metrics.set g_cold_rps (float_of_int n /. cold_dt);
  Obs.Metrics.set g_warm_rps (float_of_int n /. warm_dt);
  Util.Table.print
    ~header:[ "pass"; "requests"; "seconds"; "req/s"; "cache hits" ]
    [
      [
        "cold";
        string_of_int n;
        Util.Table.float_cell cold_dt;
        Util.Table.float_cell (float_of_int n /. cold_dt);
        "0";
      ];
      [
        "warm";
        string_of_int n;
        Util.Table.float_cell warm_dt;
        Util.Table.float_cell (float_of_int n /. warm_dt);
        string_of_int warm_hits;
      ];
    ]
