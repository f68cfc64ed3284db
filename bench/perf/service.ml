(* The service workloads, driven over one Unix-socket connection to a child
   [sap_cli serve --workers 1], so the server and this generator each
   have their own heap and GC.  The generator uses the main domain to
   send and at most one reader domain.

   - serve-mix: solves of 200 small tasks on 48-edge walks; nine requests
     in ten repeat a 64-instance hot set (cache hits) and every tenth is
     fresh (a miss).  Hits never reach a worker, so p50 measures the
     request codec, fingerprint and cache path, while p99 and the rung
     limit measure misses, queueing, solving and head-of-line blocking
     behind them.  Three open-loop rungs at fixed offered rates time each
     request from its scheduled send; a closed pipelined phase (window 64)
     measures capacity.
   - session-churn: one client in a closed loop of add-task, resolve,
     remove-task, resolve on a 1000-task, six-band session.  It uses the
     LP layer warm instead of cold and puts writes beside reads: a
     warm-start change shows here and not on offline-small. *)

module P = Sap_server.Protocol
module Client = Sap_server.Client
module Task = Core.Task

(* ---------- the child server ---------- *)

type child = {
  pid : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
}

(* Children still to be reaped, with their sockets; [at_exit] kills and
   reaps them on any exit path, so no run leaves a server behind. *)
let live = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun (p, _) -> p <> pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun (pid, socket) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid;
          try Sys.remove socket with Sys_error _ -> ())
        !live)

let spawned = ref 0

let spawn (ctx : Ctx.t) =
  incr spawned;
  let socket =
    Filename.concat Ctx.out_dir
      (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !spawned)
  in
  let pid =
    Unix.create_process ctx.sap_cli
      [| ctx.sap_cli; "serve"; "--socket"; socket; "--workers"; "1"; "-q" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := (pid, socket) :: !live;
  let deadline = Ctx.now () +. 10.0 in
  let rec connect () =
    match Client.connect_unix socket with
    | Ok fd -> fd
    | Error m ->
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
          live := List.filter (fun (p, _) -> p <> pid) !live;
          failwith "sap_cli serve exited before binding its socket"
        end;
        if Ctx.now () > deadline then failwith ("cannot reach sap_cli serve: " ^ m);
        Unix.sleepf 0.002;
        connect ()
  in
  let fd = connect () in
  { pid; fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; next_id = 0 }

let fresh_id c =
  let id = c.next_id in
  c.next_id <- id + 1;
  id

let request c ~tasks_for req = Client.request ~ic:c.ic ~oc:c.oc ~tasks_for req

let no_tasks _ = None

let stats c =
  match request c ~tasks_for:no_tasks (P.Stats { id = fresh_id c }) with
  | Ok (P.Stats_reply { stats; _ }) -> stats
  | Ok _ -> failwith "stats: unexpected response"
  | Error m -> failwith ("stats: " ^ m)

(* Graceful stop: [shutdown] drains the server and acknowledges, then the
   process exits on its own. *)
let stop c =
  (match request c ~tasks_for:no_tasks (P.Shutdown { id = fresh_id c }) with
  | Ok (P.Ack _) -> ()
  | _ -> ( try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  reap c.pid

(* Three set-ups, each in a fresh child; the first two are stopped and
   the last one is measured.  [setup_s] is their median. *)
let setup_thrice (ctx : Ctx.t) prepare =
  let once () =
    let t0 = Ctx.now () in
    let c = spawn ctx in
    let state = prepare c in
    (c, state, Ctx.now () -. t0)
  in
  let c1, _, s1 = once () in
  stop c1;
  let c2, _, s2 = once () in
  stop c2;
  let c, state, s3 = once () in
  (c, state, Perf_metrics.median [| s1; s2; s3 |])

(* ---------- request phases ---------- *)

type phase = {
  t0 : float;
  sched : float array;
  sent : float array;
  done_ : float array;  (** [nan] when no response arrived *)
  resps : P.response option array;
}

(* Send [instances] as solve requests over the connection while a reader
   domain collects the responses.  Request [k] is due at [t0 + k/rate]
   ([rate = infinity]: at once); with [window], the sender also keeps at
   most that many unanswered (a closed pipelined loop).  Frames are
   encoded before [t0], so the sender does no work between sends.  In the
   open loop the sender never waits for a response: a stalled server
   shows as latency, not as a lower offered rate. *)
let run_phase c ~rate ?window instances =
  let n = Array.length instances in
  let base = c.next_id in
  c.next_id <- base + n;
  let sched = Array.make n Float.nan in
  let sent = Array.make n Float.nan in
  let done_ = Array.make n Float.nan in
  let resps = Array.make n None in
  let lock = Mutex.create () and freed = Condition.create () in
  let inflight = ref 0 and closed = ref false in
  let tasks_for id =
    let i = id - base in
    if 0 <= i && i < n then Some (snd instances.(i)) else None
  in
  let frames =
    Array.mapi
      (fun k (path, tasks) ->
        P.request_to_string
          (P.Solve { id = base + k; params = P.default_solve_params; path; tasks }))
      instances
  in
  let reader =
    Domain.spawn (fun () ->
        let read_line () = try Some (input_line c.ic) with End_of_file | Sys_error _ -> None in
        let rec loop left =
          if left > 0 then
            match P.read_frame ~read_line with
            | None -> ()
            | Some lines ->
                (match P.response_of_lines ~tasks_for lines with
                | Ok r ->
                    let i = P.response_id r - base in
                    if 0 <= i && i < n then begin
                      done_.(i) <- Ctx.now ();
                      resps.(i) <- Some r
                    end
                | Error _ -> ());
                Mutex.protect lock (fun () ->
                    decr inflight;
                    Condition.signal freed);
                loop (left - 1)
        in
        loop n;
        Mutex.protect lock (fun () ->
            closed := true;
            Condition.signal freed))
  in
  let limit = Option.value window ~default:max_int in
  let t0 = Ctx.now () +. 0.005 in
  (try
     Array.iteri
       (fun k frame ->
         let target = if rate = infinity then t0 else t0 +. (float_of_int k /. rate) in
         let wait = target -. Ctx.now () in
         if wait > 0.0 then Unix.sleepf wait;
         Mutex.protect lock (fun () ->
             while !inflight >= limit && not !closed do
               Condition.wait freed lock
             done;
             incr inflight);
         sched.(k) <- target;
         output_string c.oc frame;
         flush c.oc;
         sent.(k) <- Ctx.now ())
       frames
   with Sys_error _ -> ());
  Domain.join reader;
  { t0; sched; sent; done_; resps }

(* Check one solve response against the instance it answers: solved,
   checker-feasible, and returning the expected weight when one is known
   (a cache hit must return what the fill placed).  Returns the weight. *)
let check_solved (ctx : Ctx.t) ?expect (path, _tasks) = function
  | None ->
      Ctx.fail ctx "request lost";
      0.0
  | Some (P.Solved { solution; _ }) -> (
      match Core.Checker.sap_feasible path solution with
      | Error m ->
          Ctx.violation ctx ("infeasible response: " ^ m);
          0.0
      | Ok () ->
          let w = Core.Solution.sap_weight solution in
          (match expect with
          | Some e when e <> w ->
              Ctx.violation ctx (Printf.sprintf "hit returned %.17g, fill placed %.17g" w e)
          | _ -> ());
          w)
  | Some r ->
      Ctx.fail ctx ("unexpected response: " ^ String.trim (P.response_to_string r));
      0.0

let latencies p =
  Array.to_list (Array.mapi (fun k d -> d -. p.sched.(k)) p.done_)
  |> List.filter (fun x -> not (Float.is_nan x))
  |> Array.of_list

(* ---------- serve-mix ---------- *)

let hot_count = 64

let fresh_every = 10

let tasks_per_request = 200

(* Open-loop rungs: offered rate (requests/second) and share of the run
   length.  Pipelined capacity, with the server and this generator sharing
   one core, is about 1.1-1.3k/s.  The middle rung, where p50 and p99 are
   reported (over 250 x --seconds requests, so p99 has fifty beyond it),
   runs at under half of that and passes the SLO; the short top rung is
   past capacity and fails, and a faster server would pass it. *)
let rungs = [ (250.0, 0.1); (500.0, 0.5); (1500.0, 0.05) ]

let middle_rate = 500.0

let slo_ms = 20.0

(* The closed capacity phase: a fixed count of requests, [window] in
   flight, sized to take about a sixth of the run; it reports the median
   completion rate over [capacity_bin]-second bins, so a short stall of
   the machine moves one bin, not the result. *)
let capacity_requests_per_run_second = 200.0

let capacity_bin = 0.5

(* p99 lag of the sender behind its schedule on the middle rung beyond
   which the offered rate was not really offered: the run is invalid.  A
   healthy sender lags a few ms, more on a busy shared machine; this
   catches a stalled one. *)
let max_send_lag_ms = 100.0

let window = 64

let serve_geometry i =
  let g = Util.Prng.create (2_000_003 + i) in
  let path = Gen.Profiles.random_walk ~prng:g ~edges:48 ~start:256 ~max_step:96 ~min_cap:8 in
  (path, Gen.Workloads.small_tasks ~prng:g ~path ~n:tasks_per_request ~delta:0.25 ())

type mix = {
  hot : (Core.Path.t * Task.t list) array;
  fresh_pool : (Core.Path.t * Task.t list) array;  (** geometries only *)
  stream : Util.Prng.t;
}

let make_mix seed =
  let root = Util.Prng.create seed in
  let hot_weights = Util.Prng.split root in
  let stream = Util.Prng.split root in
  {
    hot =
      Array.init hot_count (fun i ->
          let path, tasks = serve_geometry i in
          (path, Ctx.reweight hot_weights tasks));
    fresh_pool = Array.init hot_count (fun i -> serve_geometry (hot_count + i));
    stream;
  }

(* Request [k] of the stream, computable in any order: every tenth is
   fresh, so misses never bunch up, and each request owns a fixed window
   of the stream's draws (which instance, and for a fresh one its
   weights), so a fresh request is new content every time.  [Some i]
   marks a repeat of hot instance [i]. *)
let draws_per_request = 1 + tasks_per_request

let request_at mix k =
  let g = Util.Prng.jump mix.stream (k * draws_per_request) in
  let fresh = k mod fresh_every = fresh_every - 1 in
  let pick = int_of_float (Util.Prng.float g (float_of_int hot_count)) in
  if fresh then
    let path, tasks = mix.fresh_pool.(pick) in
    (None, (path, Ctx.reweight g tasks))
  else (Some pick, mix.hot.(pick))

type rung_result = {
  rung : Perf_metrics.rung;
  lat : Perf_metrics.latency;
  lag_p99_ms : float;
}

let rung_result ~rate p =
  let lat = Perf_metrics.latency (latencies p) in
  let answered = Array.fold_left (fun a d -> if Float.is_nan d then a else a + 1) 0 p.done_ in
  let last = Array.fold_left (fun a d -> if Float.is_nan d then a else Float.max a d) p.t0 p.done_ in
  let duration = float_of_int (Array.length p.sched) /. rate in
  let samples =
    Array.init 8 (fun i ->
        Perf_metrics.outstanding ~sched:p.sched ~done_:p.done_
          (p.t0 +. (duration *. float_of_int (i + 1) /. 8.0)))
  in
  let lag =
    Array.to_list (Array.mapi (fun k s -> s -. p.sched.(k)) p.sent)
    |> List.filter (fun x -> not (Float.is_nan x))
    |> List.map (Float.max 0.0)
  in
  {
    rung =
      {
        Perf_metrics.offered_rps = rate;
        achieved_rps = float_of_int answered /. Float.max 1e-9 (last -. p.t0);
        rung_p99_ms = lat.p99_ms;
        growing =
          Perf_metrics.backlog_growing ~slack:(Float.max 4.0 (rate *. slo_ms /. 1000.0)) samples;
      };
    lat;
    lag_p99_ms = (Perf_metrics.latency (Array.of_list lag)).p99_ms;
  }

(* In-process replay of the fill and the middle rung through the public
   pieces a request passes on the server: decode, fingerprint, cache,
   then on a miss the solve (via [Replay]) and the checker, encode, and
   the client's decode.  Each replayed solution must equal what the
   child returned. *)
let replay_serve (ctx : Ctx.t) stream =
  let cache = Sap_server.Cache.create ~capacity:1024 in
  let span = Obs.Trace.with_span in
  List.iteri
    (fun id ((path, tasks), real) ->
      let frame =
        P.request_to_string (P.Solve { id; params = P.default_solve_params; path; tasks })
      in
      match span "server.protocol.decode" (fun () -> P.request_of_string frame) with
      | Ok (P.Solve { params; path; tasks; _ }) -> (
          Replay.tally.fingerprinted_tasks <-
            Replay.tally.fingerprinted_tasks + List.length tasks;
          let key =
            span "server.fingerprint" (fun () ->
                Sap_server.Fingerprint.solve_key ~problem:"sap"
                  ~algorithm:params.P.algorithm ~seed:params.P.seed path tasks)
          in
          let hit = Sap_server.Cache.find cache key in
          let sol =
            match hit with
            | Some sol -> sol
            | None -> (
                match Replay.combine_checked path tasks with
                | Error m ->
                    Ctx.violation ctx m;
                    []
                | Ok sol ->
                    (match Replay.check path sol with
                    | Ok () -> Sap_server.Cache.add cache key sol
                    | Error m -> Ctx.violation ctx ("replay infeasible: " ^ m));
                    sol)
          in
          let resp =
            P.Solved
              {
                id;
                summary =
                  {
                    P.scheduled = List.length sol;
                    weight = Core.Solution.sap_weight sol;
                    cached = hit <> None;
                    time_ms = 0.0;
                  };
                solution = sol;
              }
          in
          let text = span "server.protocol.encode" (fun () -> P.response_to_string resp) in
          (match
             span "server.protocol.client_decode" (fun () ->
                 P.response_of_string ~tasks_for:(fun _ -> Some tasks) text)
           with
          | Ok _ -> ()
          | Error m -> Ctx.violation ctx ("replayed response does not decode: " ^ m));
          match real with
          | Some (P.Solved { solution; _ })
            when Core.Solution.sort_by_id solution <> Core.Solution.sort_by_id sol ->
              Ctx.violation ctx (Printf.sprintf "replayed request %d differs from the server's" id)
          | _ -> ())
      | _ -> Ctx.violation ctx "request frame does not decode")
    stream

let serve_mix (ctx : Ctx.t) =
  let mix = make_mix ctx.seed in
  let c, (fill, hot_weights), setup_s =
    setup_thrice ctx (fun c ->
        let p = run_phase c ~rate:infinity mix.hot in
        (p, Array.map2 (fun inst r -> check_solved ctx inst r) mix.hot p.resps))
  in
  let expect pick = Option.map (fun i -> hot_weights.(i)) pick in
  (* The rung streams are fixed by the seed and the run length; the
     capacity phase continues the same stream. *)
  let next_k = ref 0 in
  let placed = ref 0.0 and offered = ref 0.0 in
  let scrape = ref None and middle_stream = ref [] in
  let results =
    List.map
      (fun (rate, share) ->
        let middle = rate = middle_rate in
        let n = max 1 (int_of_float (rate *. share *. ctx.seconds)) in
        let reqs = Array.init n (fun i -> request_at mix (!next_k + i)) in
        next_k := !next_k + n;
        let before = if ctx.trace && middle then Some (stats c) else None in
        let p = run_phase c ~rate (Array.map snd reqs) in
        if middle then begin
          middle_stream := List.combine (List.map snd (Array.to_list reqs)) (Array.to_list p.resps);
          Option.iter (fun b -> scrape := Some (Layers.server_delta ~before:b ~after:(stats c))) before
        end;
        Array.iteri
          (fun k (pick, inst) ->
            Ctx.attempt ctx;
            placed := !placed +. check_solved ctx ?expect:(expect pick) inst p.resps.(k);
            offered := !offered +. Task.weight_of (snd inst))
          reqs;
        rung_result ~rate p)
      rungs
  in
  let cap =
    Array.init
      (int_of_float (capacity_requests_per_run_second *. ctx.seconds))
      (fun i -> request_at mix (!next_k + i))
  in
  let p = run_phase c ~rate:infinity ~window (Array.map snd cap) in
  Array.iteri
    (fun k (pick, inst) ->
      Ctx.attempt ctx;
      ignore (check_solved ctx ?expect:(expect pick) inst p.resps.(k)))
    cap;
  let last = Array.fold_left (fun a d -> if Float.is_nan d then a else Float.max a d) p.t0 p.done_ in
  let ops = Perf_metrics.binned_rate ~bin:capacity_bin ~t0:p.t0 ~t1:last p.done_ in
  let rss = Ctx.peak_rss_mb (string_of_int c.pid) in
  stop c;
  List.iter
    (fun r ->
      Printf.eprintf
        "perf: rung %6.0f/s achieved %7.1f/s p50 %7.3f ms p99 %8.3f ms backlog %s, \
         send lag p99 %.3f ms -> %s\n%!"
        r.rung.offered_rps r.rung.achieved_rps r.lat.p50_ms r.lat.p99_ms
        (if r.rung.growing then "growing" else "steady")
        r.lag_p99_ms
        (if Perf_metrics.rung_ok ~slo_ms r.rung then "ok" else "fails"))
    results;
  let mid = List.find (fun r -> r.rung.offered_rps = middle_rate) results in
  if mid.lag_p99_ms > max_send_lag_ms then
    failwith
      (Printf.sprintf "invalid run: the sender ran %.1f ms late at p99 (limit %.0f ms)"
         mid.lag_p99_ms max_send_lag_ms);
  let note = Format.asprintf "rung %.0f/s, %a" middle_rate Perf_metrics.pp_latency mid.lat in
  if not ctx.trace then begin
    Ctx.metric ctx "ops_per_s" "1/s" ops ~note:"capacity, window 64, median of 0.5 s bins";
    Ctx.metric ctx "p50_ms" "ms" mid.lat.p50_ms ~note;
    Ctx.metric ctx "p99_ms" "ms" mid.lat.p99_ms ~note;
    Ctx.metric ctx "placed_weight_share" "ratio" (!placed /. !offered)
      ~note:"of offered weight, rungs";
    Ctx.metric ctx "setup_s" "s" setup_s ~note:"median of 3: spawn, bind, cache fill";
    Ctx.metric ctx "peak_rss_mb" "MB" rss ~note:"child server"
  end
  else begin
    Obs.Report.reset_all ();
    replay_serve ctx
      (List.combine (Array.to_list mix.hot) (Array.to_list fill.resps) @ !middle_stream);
    let times = Layers.report ctx ?server:!scrape ~client_p50_ms:mid.lat.p50_ms () in
    Ctx.metric ctx "bench.traced_ops_per_s" "1/s" ops;
    Ctx.metric ctx "bench.send_lag_p99_ms" "ms" mid.lag_p99_ms;
    Ctx.metric ctx "bench.max_rps_at_slo" "1/s"
      (Perf_metrics.max_rps_at_slo ~slo_ms (List.map (fun r -> r.rung) results));
    Layers.write_trace ctx times
  end

(* ---------- session-churn ---------- *)

(* A pass adds and removes each task of the pool once.  Removing a task
   the band LP had in its basis makes the warm basis infeasible, and that
   resolve falls back to a cold band LP: about one removal in ten, the
   tail p99 sees.  A large pool keeps that share steady across seeds. *)
let churn_pairs = 256

let session_seed = 42

(* Six capacity plateaus, each its own Strip-Pack band, and spans short
   enough that most tasks stay on one plateau: a delta dirties one band
   of about 170 tasks.  The standing instance is fixed, weights included
   (one instance's placed share varies too much from seed to seed); the
   seed draws the weights of the pool that churns. *)
let session_geometry () =
  let g = Util.Prng.create 3_000_017 in
  let path = Gen.Profiles.staircase ~edges:96 ~steps:6 ~base:32 in
  let tasks n = Gen.Workloads.small_tasks ~prng:g ~path ~n ~delta:0.25 ~max_span:16 () in
  let base = tasks 1000 in
  let pool = List.map (fun j -> Task.with_id j (1_000_000 + j.Task.id)) (tasks churn_pairs) in
  (path, base, pool)

(* One session verb over the connection.  [tasks] is the session's task
   set when the verb is answered; an [opened]/[resolved] reply must be
   checker-feasible on it and is returned, a delta must be acknowledged. *)
let session_call (ctx : Ctx.t) c path tasks req =
  Ctx.attempt ctx;
  match request c ~tasks_for:(fun _ -> Some tasks) req with
  | Ok (P.Session_reply { event = P.Sess_ack; _ }) -> None
  | Ok (P.Session_reply { session; solution; _ }) -> (
      match Core.Checker.sap_feasible path solution with
      | Error m ->
          Ctx.violation ctx ("infeasible resolve: " ^ m);
          None
      | Ok () -> Some (session, solution))
  | Ok r ->
      Ctx.fail ctx ("unexpected response: " ^ String.trim (P.response_to_string r));
      None
  | Error m -> failwith ("session connection: " ^ m)

(* The four verbs of pair [j], each with the task set in force when it is
   answered: add [j], resolve, remove [j], resolve.  The instance is back
   at its base after every pair. *)
let pair ~id ~session ~base (j : Task.t) =
  let with_j = j :: base in
  let add = P.Session_add { id = id (); session; task = j } in
  let resolve_added = P.Session_resolve { id = id (); session; cold = false } in
  let remove = P.Session_remove { id = id (); session; task_id = j.Task.id } in
  let resolve_removed = P.Session_resolve { id = id (); session; cold = false } in
  [ (with_j, add); (with_j, resolve_added); (base, remove); (base, resolve_removed) ]

let reply_summary (s : Sap_server.Session.summary) =
  {
    P.s_tasks = s.n_tasks;
    s_scheduled = s.scheduled;
    s_weight = s.weight;
    s_bands = s.bands;
    s_repacked = s.repacked;
    s_reused = s.reused;
    s_warm = s.warm_seeded;
    s_time_ms = s.time_ms;
  }

(* The open and the first pass over the pairs, replayed in-process through
   [Session] with the codec work the server and the client do for each
   verb.  Each resolve must equal the child's ([real], in order). *)
let replay_session (ctx : Ctx.t) path base pool real =
  let span = Obs.Trace.with_span in
  let codec tasks req reply =
    match
      span "server.protocol.decode" (fun () -> P.request_of_string (P.request_to_string req))
    with
    | Error m -> Ctx.violation ctx ("request frame does not decode: " ^ m)
    | Ok _ -> (
        let text = span "server.protocol.encode" (fun () -> P.response_to_string reply) in
        match
          span "server.protocol.client_decode" (fun () ->
              P.response_of_string ~tasks_for:(fun _ -> Some tasks) text)
        with
        | Ok _ -> ()
        | Error m -> Ctx.violation ctx ("reply does not decode: " ^ m))
  in
  let ses =
    match Sap_server.Session.create ~seed:session_seed path base with
    | Ok s -> s
    | Error m -> failwith ("session create: " ^ m)
  in
  let tally = { Layers.resolves = 0; repacked = 0; warm_seeded = 0 } in
  let reply event solution summary =
    P.Session_reply { id = 0; session = 0; event; summary; solution }
  in
  let step tasks req expected =
    match req with
    | P.Session_open _ | P.Session_resolve _ -> (
        let cold = match req with P.Session_open _ -> true | _ -> false in
        match
          span "server.session.resolve" (fun () -> Sap_server.Session.resolve ~cold ses)
        with
        | Error m -> Ctx.violation ctx ("replayed resolve: " ^ m)
        | Ok (sol, s) -> (
            codec tasks req (reply P.Sess_resolved sol (Some (reply_summary s)));
            tally.resolves <- tally.resolves + 1;
            tally.repacked <- tally.repacked + s.repacked;
            tally.warm_seeded <- tally.warm_seeded + s.warm_seeded;
            match expected with
            | Some e when Core.Solution.sort_by_id e <> Core.Solution.sort_by_id sol ->
                Ctx.violation ctx "replayed resolve differs from the server's"
            | _ -> ()))
    | P.Session_add { task; _ } -> (
        match Sap_server.Session.add_task ses task with
        | Ok () -> codec tasks req (reply P.Sess_ack [] None)
        | Error m -> Ctx.violation ctx m)
    | P.Session_remove { task_id; _ } -> (
        match Sap_server.Session.remove_task ses task_id with
        | Ok () -> codec tasks req (reply P.Sess_ack [] None)
        | Error m -> Ctx.violation ctx m)
    | _ -> ()
  in
  let verbs =
    (base, P.Session_open { id = 0; seed = session_seed; path; tasks = base })
    :: List.concat_map (pair ~id:(fun () -> 0) ~session:0 ~base) pool
  in
  let real = ref real in
  List.iter
    (fun (tasks, req) ->
      match (req, !real) with
      | (P.Session_open _ | P.Session_resolve _), r :: rest ->
          real := rest;
          step tasks req (Some r)
      | _ -> step tasks req None)
    verbs;
  tally

let session_churn (ctx : Ctx.t) =
  let path, base, pool = session_geometry () in
  let pool = Array.of_list (Ctx.reweight (Util.Prng.create ctx.seed) pool) in
  let c, (session, opened), setup_s =
    setup_thrice ctx (fun c ->
        match
          session_call ctx c path base
            (P.Session_open { id = fresh_id c; seed = session_seed; path; tasks = base })
        with
        | Some r -> r
        | None -> failwith "session-open did not return a solution")
  in
  let before = if ctx.trace then Some (stats c) else None in
  let server = ref None in
  (* The open and the first pass over the pairs are deterministic for a
     seed: they give the placed share, what the replay must match and the
     span of the server-side numbers. *)
  let first_pass = ref [ (base, opened) ] in
  let lat = ref [] and round_trips = ref [] and pass_rates = ref [] in
  let t_start = Ctx.now () in
  while Ctx.now () -. t_start < ctx.seconds do
    let t_pass = Ctx.now () and first = !pass_rates = [] in
    Array.iter
      (fun j ->
        List.iter
          (fun (tasks, req) ->
            let t0 = Ctx.now () in
            let r = session_call ctx c path tasks req in
            if first then round_trips := (Ctx.now () -. t0) :: !round_trips;
            match (req, r) with
            | P.Session_resolve _, Some (_, sol) ->
                lat := (Ctx.now () -. t0) :: !lat;
                if first then first_pass := (tasks, sol) :: !first_pass
            | _ -> ())
          (pair ~id:(fun () -> fresh_id c) ~session ~base j))
      pool;
    pass_rates := float_of_int (4 * churn_pairs) /. (Ctx.now () -. t_pass) :: !pass_rates;
    if first then
      Option.iter (fun b -> server := Some (Layers.server_delta ~before:b ~after:(stats c))) before
  done;
  let rss = Ctx.peak_rss_mb (string_of_int c.pid) in
  stop c;
  let first_pass = List.rev !first_pass in
  let l = Perf_metrics.latency (Array.of_list !lat) in
  let note = Format.asprintf "resolve round trip, %a" Perf_metrics.pp_latency l in
  let ops_per_s = Perf_metrics.median (Array.of_list !pass_rates) in
  if not ctx.trace then begin
    let sum f = List.fold_left (fun a x -> a +. f x) 0.0 first_pass in
    let share =
      sum (fun (_, sol) -> Core.Solution.sap_weight sol) /. sum (fun (ts, _) -> Task.weight_of ts)
    in
    Ctx.metric ctx "ops_per_s" "1/s" ops_per_s
      ~note:(Printf.sprintf "deltas and resolves, median of %d passes" (List.length !pass_rates));
    Ctx.metric ctx "p50_ms" "ms" l.p50_ms ~note;
    Ctx.metric ctx "p99_ms" "ms" l.p99_ms ~note;
    Ctx.metric ctx "placed_weight_share" "ratio" share
      ~note:"of offered weight, open and first pass of pairs";
    Ctx.metric ctx "setup_s" "s" setup_s ~note:"median of 3: spawn, bind, session-open";
    Ctx.metric ctx "peak_rss_mb" "MB" rss ~note:"child server"
  end
  else begin
    Obs.Report.reset_all ();
    let session =
      replay_session ctx path base (Array.to_list pool) (List.map snd first_pass)
    in
    (* Against the server's total over every verb of the first pass, so
       over every round trip of it. *)
    let client_p50_ms = (Perf_metrics.latency (Array.of_list !round_trips)).p50_ms in
    let times = Layers.report ctx ?server:!server ~session ~client_p50_ms () in
    Ctx.metric ctx "bench.traced_ops_per_s" "1/s" ops_per_s;
    Ctx.metric ctx "bench.send_lag_p99_ms" "ms" 0.0;
    Ctx.metric ctx "bench.max_rps_at_slo" "1/s" 0.0;
    Layers.write_trace ctx times
  end
