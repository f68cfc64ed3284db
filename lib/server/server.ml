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

(* A registered session: the state machine plus its own lock — resolves
   run on pool workers and deltas on the transport domain, so per-session
   mutual exclusion is what serializes them (the registry lock only
   guards the table itself). *)
type session_entry = { se : Session.t; se_lock : Mutex.t }

type t = {
  config : config;
  pool : Pool.t;
  cache : Fingerprint.placements Cache.t;
      (* One LRU serves both problems: the key leads with the problem
         kind and is compared in full, so a [solve] and a [round-solve]
         never share an entry. *)
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

type pending = unit -> Protocol.response

let immediate resp () = resp

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

let draining_refusal t ~id = fail t ~id P.Shutting_down "server is draining"

let timeout t ~id =
  Atomic.incr t.n_timeouts;
  P.Timed_out { id }

(* Every verb that does solver work runs as a pool job through here.  A
   pool that has begun its drain refuses the job; with a [deadline] the
   response turns into a clean [timeout] once it passes — the job keeps
   running to completion (it may still warm the cache). *)
let pooled t ~id ?deadline job =
  match Pool.submit t.pool job with
  | exception Pool.Closed -> immediate (draining_refusal t ~id)
  | fut -> (
      match deadline with
      | None -> fun () -> Pool.await fut
      | Some deadline -> (
          fun () ->
            match Pool.await_until fut ~deadline with
            | Some resp -> resp
            | None -> timeout t ~id))

let solved t ~id ~cached ~time_ms sol =
  Atomic.incr t.n_solved;
  P.Solved
    {
      id;
      summary =
        {
          scheduled = List.length sol;
          weight = Core.Solution.sap_weight sol;
          cached;
          time_ms;
        };
      solution = sol;
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
  pooled t ~id (fun () ->
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
              session_solved t ~id ~session:sid ~event:P.Sess_opened result))

let submit_session_resolve t ~id ~session ~cold =
  match find_session t session with
  | None -> immediate (no_session t ~id session)
  | Some entry ->
      pooled t ~id (fun () ->
          Mutex.protect entry.se_lock (fun () ->
              match Session.resolve ~cold entry.se with
              | Error m -> fail t ~id P.Internal m
              | Ok result ->
                  session_solved t ~id ~session ~event:P.Sess_resolved result))

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

(* One record per admitted request, created at receive time.  Admission
   sets [cache_state] before the pending is handed on; the worker domain
   stamps dequeue/solve phases; the forcing domain reads them when the
   response is produced.  [Atomic.t] floats keep the cross-domain handoff
   well-defined even on the timeout path (where the job may still be
   running when the response is forced). *)
type telemetry = {
  rid : int;  (* server-assigned, monotonically increasing *)
  t_recv : float;
  verb : string;
  alg : string option;
  solve_seed : int option;
  mutable cache_state : string option;  (* "hit" | "miss" | "off"; solves only *)
  queue_s : float Atomic.t;  (* receive -> dequeue; nan until stamped *)
  solve_s : float Atomic.t;  (* solver wall time; nan until stamped *)
  finalized : bool Atomic.t;
}

let telemetry t ~verb ?alg ?solve_seed () =
  {
    rid = Atomic.fetch_and_add t.seq 1;
    t_recv = Obs.Clock.monotonic_seconds ();
    verb;
    alg;
    solve_seed;
    cache_state = None;
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
let finalize t tel pending () =
  let resp = pending () in
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

(* The lifecycle [solve] and [round-solve] share: cache lookup, then a
   pool job (queue stamp, deadline check at dequeue, timed solve under
   [span], checker) whose checked result is packed into the cache.  The
   problem-specific parts are arguments: [problem], [algorithm] and
   [seed] make the cache key (none when [cache] is off), [rounds] and
   [of_rounds] convert a result to and from the rounds the cache packs
   (a SAP solution is one round), [solve], [check] and [reply] are the
   problem's solver, checker and response, and [raised]/[infeasible]
   prefix its error messages.  A hit is rebuilt from this request's own
   tasks: the key, compared in full, proves them equal to the ones that
   filled the entry. *)
let solve_cached t tel ~id ~problem ~algorithm ~seed ~cache path tasks ~rounds
    ~of_rounds ?deadline ?histogram ~span ~raised ~infeasible ~solve ~check reply =
  let fp =
    if cache then Some (Fingerprint.make ~problem ~algorithm ~seed path tasks)
    else None
  in
  let hit =
    Option.bind fp (fun fp ->
        Option.map (Fingerprint.unpack fp) (Cache.find t.cache (Fingerprint.key fp)))
  in
  match hit with
  | Some r ->
      tel.cache_state <- Some "hit";
      immediate (reply ~cached:true ~time_ms:0.0 (of_rounds r))
  | None ->
      tel.cache_state <- Some (if Option.is_none fp then "off" else "miss");
      pooled t ~id ?deadline @@ fun () ->
      let t_deq = Obs.Clock.monotonic_seconds () in
      Atomic.set tel.queue_s (t_deq -. tel.t_recv);
      Obs.Metrics.observe h_queue (t_deq -. tel.t_recv);
      match deadline with
      | Some dl when t_deq >= dl -> timeout t ~id
      | _ -> (
          Obs.Trace.with_span span
            ~attrs:[ ("algorithm", algorithm); ("id", string_of_int id) ]
          @@ fun () ->
          let t0 = Obs.Clock.monotonic_seconds () in
          match solve () with
          | exception e -> fail t ~id P.Internal (raised ^ Printexc.to_string e)
          | v -> (
              let dt = Obs.Clock.monotonic_seconds () -. t0 in
              Atomic.set tel.solve_s dt;
              Obs.Metrics.observe h_solve dt;
              Option.iter (fun h -> Obs.Metrics.observe h dt) histogram;
              match check v with
              | Error m -> fail t ~id P.Infeasible (infeasible ^ m)
              | Ok () ->
                  Option.iter
                    (fun fp ->
                      Option.iter
                        (Cache.add t.cache (Fingerprint.key fp))
                        (Fingerprint.pack fp (rounds v)))
                    fp;
                  reply ~cached:false ~time_ms:(dt *. 1000.0) v))

(* Per-request parallelism stays off: the pool provides cross-request
   parallelism, and nesting domain fan-outs inside worker domains would
   oversubscribe the machine. *)
let submit_solve t tel ~id (params : P.solve_params) path tasks =
  match Sap.Solvers.find params.algorithm with
  | None ->
      immediate
        (fail t ~id P.Unknown_algorithm
           (Printf.sprintf "unknown algorithm %S (have: %s)" params.algorithm
              (String.concat ", " Sap.Solvers.names)))
  | Some solver ->
      let timeout_ms =
        match params.timeout_ms with
        | Some _ as s -> s
        | None -> t.config.default_timeout_ms
      in
      solve_cached t tel ~id ~problem:"sap" ~algorithm:params.algorithm
        ~seed:params.seed ~cache:params.cache path tasks
        ~rounds:(fun sol -> [ sol ])
        ~of_rounds:List.concat
        ?deadline:
          (Option.map
             (fun ms ->
               Obs.Clock.monotonic_seconds () +. (float_of_int ms /. 1000.0))
             timeout_ms)
        ?histogram:(List.assoc_opt params.algorithm t.latency)
        ~span:"server.request" ~raised:"solver raised: "
        ~infeasible:"solver produced infeasible solution: "
        ~solve:(fun () ->
          solver.Sap.Solvers.solve ~seed:params.seed ~parallel:false path tasks)
        ~check:(Core.Checker.sap_feasible path)
        (solved t ~id)

(* [round-solve]: the same lifecycle for the ROUND-SAP objective.  The
   round algorithms are deterministic (no seed) and fast enough that the
   verb carries no deadline; a client that needs one can layer it on top
   of the pipelined transport. *)
let submit_round_solve t tel ~id ~algorithm ~cache path tasks =
  match Round.Solvers.find algorithm with
  | None ->
      immediate
        (fail t ~id P.Unknown_algorithm
           (Printf.sprintf "unknown round algorithm %S (have: %s)" algorithm
              (String.concat ", " Round.Solvers.names)))
  | Some solver -> (
      match Round.Instance.create path tasks with
      | Error m ->
          immediate (fail t ~id P.Bad_request ("invalid round instance: " ^ m))
      | Ok inst ->
          solve_cached t tel ~id ~problem:"round" ~algorithm ~seed:0 ~cache path
            tasks
            ~rounds:Fun.id ~of_rounds:Fun.id
            ~span:"server.round_request" ~raised:"round solver raised: "
            ~infeasible:"round solver produced infeasible packing: "
            ~solve:(fun () -> solver.Round.Solvers.solve inst)
            ~check:(Round.Checker.check inst)
            (round_solved t ~id))

let drain_pool t =
  Atomic.set t.draining_flag true;
  Pool.shutdown t.pool

let submit t req =
  Atomic.incr t.n_requests;
  let id = P.request_id req in
  (* Verbs that do solver work: a draining server refuses them before any
     cache lookup or pool submission. *)
  let work tel admit =
    (tel, if draining t then immediate (draining_refusal t ~id) else admit ())
  in
  let tel, pending =
    match req with
    | P.Ping _ -> (telemetry t ~verb:"ping" (), immediate (P.Ack { id }))
    | P.Stats _ ->
        (* Evaluated at force time: a pipelined [stats] frame behind a
           batch reflects that batch once the transport's in-order flush
           reaches it. *)
        ( telemetry t ~verb:"stats" (),
          fun () -> P.Stats_reply { id; stats = stats_json t } )
    | P.Shutdown _ ->
        Atomic.set t.draining_flag true;
        ( telemetry t ~verb:"shutdown" (),
          fun () ->
            drain_pool t;
            P.Ack { id } )
    | P.Solve { params; path; tasks; _ } ->
        let tel =
          telemetry t ~verb:"solve" ~alg:params.algorithm
            ~solve_seed:params.seed ()
        in
        work tel (fun () -> submit_solve t tel ~id params path tasks)
    | P.Round_solve { algorithm; cache; path; tasks; _ } ->
        let tel = telemetry t ~verb:"round-solve" ~alg:algorithm () in
        work tel (fun () ->
            submit_round_solve t tel ~id ~algorithm ~cache path tasks)
    | P.Session_open { seed; path; tasks; _ } ->
        work
          (telemetry t ~verb:"session-open" ~solve_seed:seed ())
          (fun () -> submit_session_open t ~id ~seed path tasks)
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
        work (telemetry t ~verb:"resolve" ()) (fun () ->
            submit_session_resolve t ~id ~session ~cold)
    | P.Session_close { session; _ } ->
        ( telemetry t ~verb:"session-close" (),
          immediate (session_close t ~id ~session) )
  in
  finalize t tel pending

let handle t req = submit t req ()

let drain t = drain_pool t
