module P = Protocol

(* Latency histograms (seconds).  [total] spans receive -> respond for
   every request; the [queue]/[solve] phases and the hit/miss split only
   apply to solve requests.  Request totals (requests/solved/errors/
   timeouts) live on the server value itself — the per-server [Atomic.t]
   fields are the single source of truth, surfaced via [stats_json]. *)
let h_total = Obs.Metrics.histogram "server.latency.total"
let h_total_hit = Obs.Metrics.histogram "server.latency.total.hit"
let h_total_miss = Obs.Metrics.histogram "server.latency.total.miss"
let h_queue = Obs.Metrics.histogram "server.latency.queue"
let h_solve = Obs.Metrics.histogram "server.latency.solve"

type config = {
  workers : int option;
  queue_capacity : int option;
  cache_capacity : int;
  default_timeout_ms : int option;
  log : (string -> unit) option;
}

let default_config =
  {
    workers = None;
    queue_capacity = None;
    cache_capacity = 1024;
    default_timeout_ms = None;
    log = None;
  }

type cached_solve = {
  c_scheduled : int;
  c_weight : float;
  c_solution : Core.Solution.sap;
}

(* One LRU serves both problems.  {!Fingerprint.solve_key} embeds the
   problem kind, so a [solve] and a [round-solve] entry can never share a
   key; the variant additionally keeps even a 64-bit hash collision
   across problems from serving a round packing as a SAP solution. *)
type cache_entry =
  | Sap_result of cached_solve
  | Round_result of Core.Solution.sap list

(* A registered session: the state machine plus its own lock — resolves
   run on pool workers and deltas on the transport domain, so per-session
   mutual exclusion is what serializes them (the registry lock only
   guards the table itself). *)
type session_entry = { se : Session.t; se_lock : Mutex.t }

type t = {
  config : config;
  pool : Pool.t;
  cache : cache_entry Cache.t;
  draining_flag : bool Atomic.t;
  started : float;
  seq : int Atomic.t;
  n_requests : int Atomic.t;
  n_solved : int Atomic.t;
  n_errors : int Atomic.t;
  n_timeouts : int Atomic.t;
  sessions : (int, session_entry) Hashtbl.t;
  sessions_lock : Mutex.t;
  sid_seq : int Atomic.t;
  latency : (string * Obs.Metrics.histogram) list;
}

let create ?(config = default_config) () =
  {
    config;
    pool = Pool.create ?workers:config.workers ?queue_capacity:config.queue_capacity ();
    cache = Cache.create ~capacity:config.cache_capacity;
    draining_flag = Atomic.make false;
    started = Obs.Clock.monotonic_seconds ();
    seq = Atomic.make 0;
    n_requests = Atomic.make 0;
    n_solved = Atomic.make 0;
    n_errors = Atomic.make 0;
    n_timeouts = Atomic.make 0;
    sessions = Hashtbl.create 16;
    sessions_lock = Mutex.create ();
    sid_seq = Atomic.make 0;
    latency =
      List.map
        (fun a -> (a, Obs.Metrics.histogram ("server.latency_seconds." ^ a)))
        Sap.Solvers.names;
  }

type pending = {
  ready : unit -> bool;
  force : unit -> Protocol.response;
}

let immediate resp = { ready = (fun () -> true); force = (fun () -> resp) }

let draining t = Atomic.get t.draining_flag

let stats_json t =
  let uptime = Obs.Clock.monotonic_seconds () -. t.started in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "sap-server-stats v2");
      ("uptime_seconds", Obs.Json.Float uptime);
      ("draining", Obs.Json.Bool (draining t));
      ( "requests",
        Obs.Json.Obj
          [
            ("total", Obs.Json.Int (Atomic.get t.n_requests));
            ("solved", Obs.Json.Int (Atomic.get t.n_solved));
            ("errors", Obs.Json.Int (Atomic.get t.n_errors));
            ("timeouts", Obs.Json.Int (Atomic.get t.n_timeouts));
          ] );
      ("cache", Cache.stats_json t.cache);
      ("pool", Pool.stats_json t.pool);
      ( "sessions",
        Obs.Json.Obj
          [
            ( "open",
              Obs.Json.Int
                (Mutex.protect t.sessions_lock (fun () ->
                     Hashtbl.length t.sessions)) );
          ] );
      ("metrics", Obs.Metrics.snapshot_json ());
    ]

let fail t ~id code message =
  Atomic.incr t.n_errors;
  P.Failed { id; code; message }

let timeout t ~id =
  Atomic.incr t.n_timeouts;
  P.Timed_out { id }

let solved t ~id ~cached ~time_ms (c : cached_solve) =
  Atomic.incr t.n_solved;
  P.Solved
    {
      id;
      summary =
        { scheduled = c.c_scheduled; weight = c.c_weight; cached; time_ms };
      solution = c.c_solution;
    }

let round_solved t ~id ~cached ~time_ms rounds =
  Atomic.incr t.n_solved;
  P.Round_solved
    {
      id;
      summary =
        {
          P.r_rounds = List.length rounds;
          r_cached = cached;
          r_time_ms = time_ms;
        };
      rounds;
    }

(* ---------- sessions ---------- *)

(* Session ids are globally unique across shard processes (pid in the
   high bits, a per-process counter below), so a router can pin a sid to
   its owning shard without rewriting session attributes. *)
let fresh_sid t =
  ((Unix.getpid () land 0xFFFFFF) lsl 24) lor (Atomic.fetch_and_add t.sid_seq 1)

let find_session t sid =
  Mutex.protect t.sessions_lock (fun () -> Hashtbl.find_opt t.sessions sid)

let session_summary (s : Session.summary) : P.session_summary =
  {
    P.s_tasks = s.Session.n_tasks;
    s_scheduled = s.Session.scheduled;
    s_weight = s.Session.weight;
    s_bands = s.Session.bands;
    s_repacked = s.Session.repacked;
    s_reused = s.Session.reused;
    s_warm = s.Session.warm_seeded;
    s_time_ms = s.Session.time_ms;
  }

let session_solved t ~id ~session ~event (sol, summary) =
  Atomic.incr t.n_solved;
  P.Session_reply
    {
      id;
      session;
      event;
      summary = Some (session_summary summary);
      solution = sol;
    }

let no_session t ~id sid =
  fail t ~id P.Unknown_session (Printf.sprintf "unknown session %d" sid)

(* [session-open] and [resolve] do solver work, so they run as pool jobs
   like [solve] does; the attribute-only deltas mutate session state
   inline at admission time, which keeps a pipelined open/add/resolve
   sequence ordered without a pool round-trip per delta. *)
let submit_session_open t ~id ~seed path tasks =
  let job () =
    match Session.create ~seed path tasks with
    | Error m -> fail t ~id P.Bad_request m
    | Ok ses -> (
        match Session.resolve ~cold:true ses with
        | Error m -> fail t ~id P.Internal m
        | Ok result ->
            let sid = fresh_sid t in
            Mutex.protect t.sessions_lock (fun () ->
                Hashtbl.replace t.sessions sid
                  { se = ses; se_lock = Mutex.create () });
            session_solved t ~id ~session:sid ~event:P.Sess_opened result)
  in
  match Pool.submit t.pool job with
  | exception Pool.Closed ->
      immediate (fail t ~id P.Shutting_down "server is draining")
  | fut -> { ready = (fun () -> Pool.completed fut); force = (fun () -> Pool.await fut) }

let submit_session_resolve t ~id ~session ~cold =
  match find_session t session with
  | None -> immediate (no_session t ~id session)
  | Some entry -> (
      let job () =
        Mutex.protect entry.se_lock (fun () ->
            match Session.resolve ~cold entry.se with
            | Error m -> fail t ~id P.Internal m
            | Ok result ->
                session_solved t ~id ~session ~event:P.Sess_resolved result)
      in
      match Pool.submit t.pool job with
      | exception Pool.Closed ->
          immediate (fail t ~id P.Shutting_down "server is draining")
      | fut ->
          { ready = (fun () -> Pool.completed fut); force = (fun () -> Pool.await fut) })

let session_delta t ~id ~session apply =
  match find_session t session with
  | None -> no_session t ~id session
  | Some entry -> (
      match Mutex.protect entry.se_lock (fun () -> apply entry.se) with
      | Error m -> fail t ~id P.Bad_request m
      | Ok () ->
          P.Session_reply
            { id; session; event = P.Sess_ack; summary = None; solution = [] })

let session_close t ~id ~session =
  let entry =
    Mutex.protect t.sessions_lock (fun () ->
        let e = Hashtbl.find_opt t.sessions session in
        Hashtbl.remove t.sessions session;
        e)
  in
  match entry with
  | None -> no_session t ~id session
  | Some entry ->
      Mutex.protect entry.se_lock (fun () -> Session.close entry.se);
      P.Session_reply
        { id; session; event = P.Sess_closed; summary = None; solution = [] }

(* ---------- per-request telemetry ---------- *)

(* One record per admitted request, created at receive time.  The worker
   domain stamps dequeue/solve phases; the forcing domain reads them when
   the response is produced.  [Atomic.t] floats keep the cross-domain
   handoff well-defined even on the timeout path (where the job may still
   be running when the response is forced). *)
type telemetry = {
  rid : int;  (* server-assigned, monotonically increasing *)
  t_recv : float;
  verb : string;
  alg : string option;
  solve_seed : int option;
  cache_state : string option;  (* "hit" | "miss" | "off"; solves only *)
  queue_s : float Atomic.t;  (* receive -> dequeue; nan until stamped *)
  solve_s : float Atomic.t;  (* solver wall time; nan until stamped *)
  finalized : bool Atomic.t;
}

let telemetry t ~verb ?alg ?solve_seed ?cache_state () =
  {
    rid = Atomic.fetch_and_add t.seq 1;
    t_recv = Obs.Clock.monotonic_seconds ();
    verb;
    alg;
    solve_seed;
    cache_state;
    queue_s = Atomic.make Float.nan;
    solve_s = Atomic.make Float.nan;
    finalized = Atomic.make false;
  }

let response_status = function
  | P.Solved _ -> "solved"
  | P.Round_solved _ -> "round-solved"
  | P.Timed_out _ -> "timeout"
  | P.Ack _ -> "ack"
  | P.Stats_reply _ -> "stats"
  | P.Failed { code; _ } -> "error:" ^ P.error_code_to_string code
  | P.Session_reply { event; _ } ->
      "session:" ^ P.session_event_to_string event

let log_line tel resp ~total =
  let b = Buffer.create 160 in
  let kv k v =
    if Buffer.length b > 0 then Buffer.add_char b ' ';
    Buffer.add_string b k;
    Buffer.add_char b '=';
    Buffer.add_string b v
  in
  let ms s = Printf.sprintf "%.3f" (s *. 1000.0) in
  kv "ts" (Printf.sprintf "%.6f" (Unix.gettimeofday ()));
  kv "req" (string_of_int tel.rid);
  kv "id" (string_of_int (P.response_id resp));
  kv "verb" tel.verb;
  Option.iter (fun a -> kv "alg" a) tel.alg;
  Option.iter (fun s -> kv "seed" (string_of_int s)) tel.solve_seed;
  Option.iter (fun c -> kv "cache" c) tel.cache_state;
  kv "status" (response_status resp);
  (match resp with
  | P.Solved { summary; _ } ->
      kv "scheduled" (string_of_int summary.P.scheduled);
      kv "weight" (Printf.sprintf "%.6g" summary.P.weight)
  | P.Round_solved { summary; _ } ->
      kv "rounds" (string_of_int summary.P.r_rounds)
  | P.Session_reply { session; summary = Some s; _ } ->
      kv "session" (string_of_int session);
      kv "scheduled" (string_of_int s.P.s_scheduled);
      kv "weight" (Printf.sprintf "%.6g" s.P.s_weight);
      kv "repacked" (string_of_int s.P.s_repacked);
      kv "reused" (string_of_int s.P.s_reused)
  | P.Session_reply { session; summary = None; _ } ->
      kv "session" (string_of_int session)
  | _ -> ());
  let q = Atomic.get tel.queue_s and s = Atomic.get tel.solve_s in
  if not (Float.is_nan q) then kv "queue_ms" (ms q);
  if not (Float.is_nan s) then kv "solve_ms" (ms s);
  kv "total_ms" (ms total);
  Buffer.contents b

(* Wrap a pending so the respond timestamp, total-latency observations and
   the structured log line happen exactly once, when the transport forces
   the response (FIFO flush order = respond order). *)
let finalize t tel pending =
  let record resp =
    if not (Atomic.exchange tel.finalized true) then begin
      let total = Obs.Clock.monotonic_seconds () -. tel.t_recv in
      Obs.Metrics.observe h_total total;
      (match tel.cache_state with
      | Some "hit" -> Obs.Metrics.observe h_total_hit total
      | Some _ -> Obs.Metrics.observe h_total_miss total
      | None -> ());
      match t.config.log with
      | Some log -> log (log_line tel resp ~total)
      | None -> ()
    end;
    resp
  in
  { ready = pending.ready; force = (fun () -> record (pending.force ())) }

(* Per-request parallelism stays off: the pool provides cross-request
   parallelism, and nesting domain fan-outs inside worker domains would
   oversubscribe the machine. *)
let submit_solve t tel ~id (params : P.solve_params) path tasks =
  match Sap.Solvers.find params.algorithm with
  | None ->
      ( tel,
        immediate
          (fail t ~id P.Unknown_algorithm
             (Printf.sprintf "unknown algorithm %S (have: %s)" params.algorithm
                (String.concat ", " Sap.Solvers.names))) )
  | Some solver -> (
      let solve = solver.Sap.Solvers.solve ~seed:params.seed ~parallel:false in
      let key =
        if params.cache then
          Some
            (Fingerprint.solve_key ~problem:"sap" ~algorithm:params.algorithm
               ~seed:params.seed path tasks)
        else None
      in
      match Option.map (Cache.find t.cache) key |> Option.join with
      | Some (Sap_result hit) ->
          ( { tel with cache_state = Some "hit" },
            immediate (solved t ~id ~cached:true ~time_ms:0.0 hit) )
      | Some (Round_result _) | None -> (
          let tel =
            { tel with cache_state = Some (if key = None then "off" else "miss") }
          in
          let timeout_ms =
            match params.timeout_ms with
            | Some _ as s -> s
            | None -> t.config.default_timeout_ms
          in
          let deadline =
            Option.map
              (fun ms ->
                Obs.Clock.monotonic_seconds () +. (float_of_int ms /. 1000.0))
              timeout_ms
          in
          let job () =
            let t_deq = Obs.Clock.monotonic_seconds () in
            Atomic.set tel.queue_s (t_deq -. tel.t_recv);
            Obs.Metrics.observe h_queue (t_deq -. tel.t_recv);
            let expired =
              match deadline with Some dl -> t_deq >= dl | None -> false
            in
            if expired then timeout t ~id
            else
              Obs.Trace.with_span "server.request"
                ~attrs:[ ("algorithm", params.algorithm); ("id", string_of_int id) ]
              @@ fun () ->
              let t0 = Obs.Clock.monotonic_seconds () in
              match solve path tasks with
              | exception e ->
                  fail t ~id P.Internal
                    (Printf.sprintf "solver raised: %s" (Printexc.to_string e))
              | sol -> (
                  let dt = Obs.Clock.monotonic_seconds () -. t0 in
                  Atomic.set tel.solve_s dt;
                  Obs.Metrics.observe h_solve dt;
                  (match List.assoc_opt params.algorithm t.latency with
                  | Some h -> Obs.Metrics.observe h dt
                  | None -> ());
                  match Core.Checker.sap_feasible path sol with
                  | Error m ->
                      fail t ~id P.Infeasible ("solver produced infeasible solution: " ^ m)
                  | Ok () ->
                      let entry =
                        {
                          c_scheduled = List.length sol;
                          c_weight = Core.Solution.sap_weight sol;
                          c_solution = sol;
                        }
                      in
                      (match key with
                      | Some k -> Cache.add t.cache k (Sap_result entry)
                      | None -> ());
                      solved t ~id ~cached:false ~time_ms:(dt *. 1000.0) entry)
          in
          match Pool.submit t.pool job with
          | exception Pool.Closed ->
              (tel, immediate (fail t ~id P.Shutting_down "server is draining"))
          | fut ->
              let ready () =
                Pool.completed fut
                ||
                match deadline with
                | Some dl -> Obs.Clock.monotonic_seconds () >= dl
                | None -> false
              in
              let force () =
                match deadline with
                | None -> Pool.await fut
                | Some dl -> (
                    match Pool.await_until fut ~deadline:dl with
                    | Some resp -> resp
                    | None ->
                        (* The job keeps running to completion (it may
                           still warm the cache); this request's answer
                           is a clean timeout. *)
                        timeout t ~id)
              in
              (tel, { ready; force })))

(* [round-solve]: same lifecycle as [solve] — cache lookup, pool job,
   checker verification, cache insert — for the ROUND-SAP objective.  The
   round algorithms are deterministic (no seed) and fast enough that the
   verb carries no deadline; a client that needs one can layer it on top
   of the pipelined transport. *)
let submit_round_solve t tel ~id ~algorithm ~cache path tasks =
  match Round.Solvers.find algorithm with
  | None ->
      ( tel,
        immediate
          (fail t ~id P.Unknown_algorithm
             (Printf.sprintf "unknown round algorithm %S (have: %s)" algorithm
                (String.concat ", " Round.Solvers.names))) )
  | Some solver -> (
      match Round.Instance.create path tasks with
      | Error m ->
          (tel, immediate (fail t ~id P.Bad_request ("invalid round instance: " ^ m)))
      | Ok inst -> (
          let key =
            if cache then
              Some
                (Fingerprint.solve_key ~problem:"round" ~algorithm ~seed:0 path
                   tasks)
            else None
          in
          match Option.map (Cache.find t.cache) key |> Option.join with
          | Some (Round_result rounds) ->
              ( { tel with cache_state = Some "hit" },
                immediate (round_solved t ~id ~cached:true ~time_ms:0.0 rounds) )
          | Some (Sap_result _) | None -> (
              let tel =
                {
                  tel with
                  cache_state = Some (if key = None then "off" else "miss");
                }
              in
              let job () =
                let t_deq = Obs.Clock.monotonic_seconds () in
                Atomic.set tel.queue_s (t_deq -. tel.t_recv);
                Obs.Metrics.observe h_queue (t_deq -. tel.t_recv);
                Obs.Trace.with_span "server.round_request"
                  ~attrs:[ ("algorithm", algorithm); ("id", string_of_int id) ]
                @@ fun () ->
                let t0 = Obs.Clock.monotonic_seconds () in
                match solver.Round.Solvers.solve inst with
                | exception e ->
                    fail t ~id P.Internal
                      (Printf.sprintf "round solver raised: %s"
                         (Printexc.to_string e))
                | rounds -> (
                    let dt = Obs.Clock.monotonic_seconds () -. t0 in
                    Atomic.set tel.solve_s dt;
                    Obs.Metrics.observe h_solve dt;
                    match Round.Checker.check inst rounds with
                    | Error m ->
                        fail t ~id P.Infeasible
                          ("round solver produced infeasible packing: " ^ m)
                    | Ok () ->
                        (match key with
                        | Some k -> Cache.add t.cache k (Round_result rounds)
                        | None -> ());
                        round_solved t ~id ~cached:false ~time_ms:(dt *. 1000.0)
                          rounds)
              in
              match Pool.submit t.pool job with
              | exception Pool.Closed ->
                  (tel, immediate (fail t ~id P.Shutting_down "server is draining"))
              | fut ->
                  ( tel,
                    {
                      ready = (fun () -> Pool.completed fut);
                      force = (fun () -> Pool.await fut);
                    } ))))

let drain_pool t =
  Atomic.set t.draining_flag true;
  Pool.shutdown t.pool

let submit t req =
  Atomic.incr t.n_requests;
  let id = P.request_id req in
  let tel, pending =
    match req with
    | P.Ping _ -> (telemetry t ~verb:"ping" (), immediate (P.Ack { id }))
    | P.Stats _ ->
        (* Evaluated at force time: a pipelined [stats] frame behind a
           batch reflects that batch once the transport's in-order flush
           reaches it. *)
        ( telemetry t ~verb:"stats" (),
          {
            ready = (fun () -> true);
            force = (fun () -> P.Stats_reply { id; stats = stats_json t });
          } )
    | P.Shutdown _ ->
        Atomic.set t.draining_flag true;
        ( telemetry t ~verb:"shutdown" (),
          { ready = (fun () -> true); force = (fun () -> drain_pool t; P.Ack { id }) } )
    | P.Solve { params; path; tasks; _ } ->
        let tel =
          telemetry t ~verb:"solve" ~alg:params.algorithm
            ~solve_seed:params.seed ()
        in
        if draining t then
          (tel, immediate (fail t ~id P.Shutting_down "server is draining"))
        else submit_solve t tel ~id params path tasks
    | P.Round_solve { algorithm; cache; path; tasks; _ } ->
        let tel = telemetry t ~verb:"round-solve" ~alg:algorithm () in
        if draining t then
          (tel, immediate (fail t ~id P.Shutting_down "server is draining"))
        else submit_round_solve t tel ~id ~algorithm ~cache path tasks
    | P.Session_open { seed; path; tasks; _ } ->
        let tel = telemetry t ~verb:"session-open" ~solve_seed:seed () in
        if draining t then
          (tel, immediate (fail t ~id P.Shutting_down "server is draining"))
        else (tel, submit_session_open t ~id ~seed path tasks)
    | P.Session_add { session; task; _ } ->
        ( telemetry t ~verb:"add-task" (),
          immediate
            (session_delta t ~id ~session (fun ses -> Session.add_task ses task))
        )
    | P.Session_remove { session; task_id; _ } ->
        ( telemetry t ~verb:"remove-task" (),
          immediate
            (session_delta t ~id ~session (fun ses ->
                 Session.remove_task ses task_id)) )
    | P.Session_resolve { session; cold; _ } ->
        let tel = telemetry t ~verb:"resolve" () in
        if draining t then
          (tel, immediate (fail t ~id P.Shutting_down "server is draining"))
        else (tel, submit_session_resolve t ~id ~session ~cold)
    | P.Session_close { session; _ } ->
        ( telemetry t ~verb:"session-close" (),
          immediate (session_close t ~id ~session) )
  in
  finalize t tel pending

let handle t req = (submit t req).force ()

let drain t = drain_pool t
