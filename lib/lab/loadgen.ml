module P = Sap_server.Protocol

type config = {
  rps : float;
  duration : float;
  connections : int;
  profile : string;
  distinct : int;
  algorithm : string;
  seed : int;
  timeout_ms : int option;
  cache : bool;
  scrape_stats : bool;
}

let default_config =
  {
    rps = 50.0;
    duration = 2.0;
    connections = 4;
    profile = "uniform-mixed";
    distinct = 32;
    algorithm = "combine";
    seed = 42;
    timeout_ms = None;
    cache = true;
    scrape_stats = true;
  }

type report = {
  r_config : config;
  offered_rps : float;
  achieved_rps : float;
  elapsed : float;
  sent : int;
  completed : int;
  solved : int;
  cached : int;
  timeouts : int;
  errors : int;
  lost : int;
  latency : Obs.Metrics.histogram_summary;
  send_lag : Obs.Metrics.histogram_summary;
  protocol_errors : string list;
  server_stats : Obs.Json.t option;
}

(* Per-request outcome codes; each cell is written by exactly one reader
   domain (ids are partitioned round-robin across connections) and read
   only after that domain is joined. *)
let st_pending = 0
let st_solved = 1
let st_cached = 2
let st_timeout = 3
let st_error = 4
let st_unsent = 5

let now () = Obs.Clock.monotonic_seconds ()

let build_mix cfg =
  let prng = Util.Prng.create cfg.seed in
  Array.init (max 1 cfg.distinct) (fun _ ->
      Corpus.sample_path ~family:cfg.profile ~prng)

let validate cfg =
  if not (List.mem cfg.profile Corpus.path_families) then
    Error
      (Printf.sprintf "unknown profile %S (have: %s)" cfg.profile
         (String.concat ", " Corpus.path_families))
  else if cfg.rps <= 0.0 then Error "rps must be positive"
  else if cfg.duration <= 0.0 then Error "duration must be positive"
  else if cfg.connections < 1 then Error "connections must be >= 1"
  else Ok ()

let n_requests cfg =
  let n = int_of_float (Float.round (cfg.rps *. cfg.duration)) in
  if n < 1 then 1 else n

let params_of cfg =
  {
    P.algorithm = cfg.algorithm;
    seed = cfg.seed;
    timeout_ms = cfg.timeout_ms;
    cache = cfg.cache;
  }

let summarize cfg ~t0 ~sched ~send_t ~done_t ~status ~protocol_errors
    ~server_stats =
  let n = Array.length status in
  let sent = ref 0
  and completed = ref 0
  and solved = ref 0
  and cached = ref 0
  and timeouts = ref 0
  and errors = ref 0 in
  let latencies = ref [] and lags = ref [] in
  let last_done = ref t0 in
  for k = 0 to n - 1 do
    if status.(k) <> st_unsent then begin
      incr sent;
      if not (Float.is_nan send_t.(k)) then
        lags := Float.max 0.0 (send_t.(k) -. sched.(k)) :: !lags;
      if status.(k) <> st_pending then begin
        incr completed;
        if done_t.(k) > !last_done then last_done := done_t.(k);
        latencies := Float.max 0.0 (done_t.(k) -. sched.(k)) :: !latencies;
        if status.(k) = st_solved then incr solved
        else if status.(k) = st_cached then incr cached
        else if status.(k) = st_timeout then incr timeouts
        else incr errors
      end
    end
  done;
  let elapsed = Float.max 1e-9 (!last_done -. t0) in
  {
    r_config = cfg;
    offered_rps = cfg.rps;
    achieved_rps = float_of_int !completed /. elapsed;
    elapsed;
    sent = !sent;
    completed = !completed;
    solved = !solved;
    cached = !cached;
    timeouts = !timeouts;
    errors = !errors;
    lost = !sent - !completed;
    latency = Obs.Metrics.summary_of_values (Array.of_list !latencies);
    send_lag = Obs.Metrics.summary_of_values (Array.of_list !lags);
    protocol_errors;
    server_stats;
  }

(* One extra connection mid-run: send a [stats] frame, keep the parsed
   snapshot.  Proves the live scrape works while solves are in flight. *)
let scrape connect errs errs_lock =
  let result =
    match connect () with
    | Error m -> Error m
    | Ok fd -> (
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        match
          Sap_server.Client.request ~ic:(Unix.in_channel_of_descr fd)
            ~oc:(Unix.out_channel_of_descr fd) ~tasks_for:(fun _ -> None)
            (P.Stats { id = 0 })
        with
        | Ok (P.Stats_reply { stats; _ }) -> Ok stats
        | Ok _ -> Error "unexpected response"
        | Error m -> Error m
        | exception Sys_error m -> Error m)
  in
  match result with
  | Ok stats -> Some stats
  | Error m ->
      Mutex.protect errs_lock (fun () -> errs := ("stats scrape: " ^ m) :: !errs);
      None

let run ~connect cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok () -> (
      let mix = build_mix cfg in
      let distinct = Array.length mix in
      let n = n_requests cfg in
      let nconn = min cfg.connections n in
      let params = params_of cfg in
      let rec open_conns acc i =
        if i = nconn then Ok (Array.of_list (List.rev acc))
        else
          match connect () with
          | Ok fd -> open_conns (fd :: acc) (i + 1)
          | Error m ->
              List.iter
                (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                acc;
              Error (Printf.sprintf "connection %d: %s" i m)
      in
      match open_conns [] 0 with
      | Error _ as e -> e
      | Ok fds ->
          let ics = Array.map Unix.in_channel_of_descr fds in
          let ocs = Array.map Unix.out_channel_of_descr fds in
          let sched = Array.make n Float.nan in
          let send_t = Array.make n Float.nan in
          let done_t = Array.make n Float.nan in
          let status = Array.make n st_pending in
          let errs = ref [] in
          let errs_lock = Mutex.create () in
          let record_err m =
            Mutex.lock errs_lock;
            errs := m :: !errs;
            Mutex.unlock errs_lock
          in
          let tasks_for id =
            if id >= 0 && id < n then Some (snd mix.(id mod distinct)) else None
          in
          (* Reader domains: one per connection, collecting responses until
             the server finishes the stream (it half-closes after answering
             everything we sent, because we half-close the send side). *)
          let readers =
            Array.map
              (fun ic ->
                Domain.spawn (fun () ->
                    let read_line () =
                      try Some (input_line ic) with End_of_file -> None
                    in
                    let rec loop () =
                      match P.read_frame ~read_line with
                      | None -> ()
                      | Some lines ->
                          (match P.response_of_lines ~tasks_for lines with
                          | Error m -> record_err ("bad response frame: " ^ m)
                          | Ok resp -> (
                              let id = P.response_id resp in
                              if id < 0 || id >= n then
                                record_err
                                  (Printf.sprintf "response for unknown id %d" id)
                              else begin
                                done_t.(id) <- now ();
                                status.(id) <-
                                  (match resp with
                                  | P.Solved { summary; _ } ->
                                      if summary.P.cached then st_cached
                                      else st_solved
                                  | P.Timed_out _ -> st_timeout
                                  | _ -> st_error)
                              end));
                          loop ()
                    in
                    loop ()))
              ics
          in
          (* Pacing domain: open-loop sender.  Arrival k is scheduled at
             t0 + k/rps regardless of how long earlier requests take —
             latency is measured from the schedule, so queueing delay
             (coordinated omission) is charged to the server, not hidden. *)
          let t0 = now () +. 0.02 in
          let pacer =
            Domain.spawn (fun () ->
                let dead = Array.make nconn false in
                for k = 0 to n - 1 do
                  let target = t0 +. (float_of_int k /. cfg.rps) in
                  let wait = target -. now () in
                  if wait > 0.0 then Unix.sleepf wait;
                  sched.(k) <- target;
                  let c = k mod nconn in
                  if dead.(c) then status.(k) <- st_unsent
                  else begin
                    let path, tasks = mix.(k mod distinct) in
                    match
                      output_string ocs.(c)
                        (P.request_to_string
                           (P.Solve { id = k; params; path; tasks }));
                      flush ocs.(c)
                    with
                    | () -> send_t.(k) <- now ()
                    | exception Sys_error m ->
                        dead.(c) <- true;
                        status.(k) <- st_unsent;
                        record_err
                          (Printf.sprintf "connection %d write failed: %s" c m)
                  end
                done;
                Array.iter
                  (fun fd ->
                    try Unix.shutdown fd Unix.SHUTDOWN_SEND
                    with Unix.Unix_error _ -> ())
                  fds)
          in
          let server_stats =
            if cfg.scrape_stats then begin
              let mid = t0 +. (cfg.duration /. 2.0) -. now () in
              if mid > 0.0 then Unix.sleepf mid;
              scrape connect errs errs_lock
            end
            else None
          in
          Domain.join pacer;
          Array.iter Domain.join readers;
          Array.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            fds;
          Ok
            (summarize cfg ~t0 ~sched ~send_t ~done_t ~status
               ~protocol_errors:(List.rev !errs) ~server_stats))

let run_closed ~handle cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok () ->
      let mix = build_mix cfg in
      let distinct = Array.length mix in
      let n = n_requests cfg in
      let params = params_of cfg in
      let sched = Array.make n Float.nan in
      let send_t = Array.make n Float.nan in
      let done_t = Array.make n Float.nan in
      let status = Array.make n st_pending in
      let t0 = now () in
      for k = 0 to n - 1 do
        let path, tasks = mix.(k mod distinct) in
        let t_send = now () in
        sched.(k) <- t_send;
        send_t.(k) <- t_send;
        let resp = handle (P.Solve { id = k; params; path; tasks }) in
        done_t.(k) <- now ();
        status.(k) <-
          (match resp with
          | P.Solved { summary; _ } ->
              if summary.P.cached then st_cached else st_solved
          | P.Timed_out _ -> st_timeout
          | _ -> st_error)
      done;
      Ok
        (summarize cfg ~t0 ~sched ~send_t ~done_t ~status ~protocol_errors:[]
           ~server_stats:None)

let cache_hit_rate r =
  let served = r.solved + r.cached in
  if served = 0 then None else Some (float_of_int r.cached /. float_of_int served)

let config_json c =
  Obs.Json.Obj
    [
      ("rps", Obs.Json.Float c.rps);
      ("duration_seconds", Obs.Json.Float c.duration);
      ("connections", Obs.Json.Int c.connections);
      ("profile", Obs.Json.String c.profile);
      ("distinct", Obs.Json.Int c.distinct);
      ("algorithm", Obs.Json.String c.algorithm);
      ("seed", Obs.Json.Int c.seed);
      ( "timeout_ms",
        match c.timeout_ms with
        | Some ms -> Obs.Json.Int ms
        | None -> Obs.Json.Null );
      ("cache", Obs.Json.Bool c.cache);
    ]

let report_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "sap-loadgen v1");
      ("config", config_json r.r_config);
      ("offered_rps", Obs.Json.Float r.offered_rps);
      ("achieved_rps", Obs.Json.Float r.achieved_rps);
      ("elapsed_seconds", Obs.Json.Float r.elapsed);
      ( "requests",
        Obs.Json.Obj
          [
            ("sent", Obs.Json.Int r.sent);
            ("completed", Obs.Json.Int r.completed);
            ("solved", Obs.Json.Int r.solved);
            ("cached", Obs.Json.Int r.cached);
            ("timeouts", Obs.Json.Int r.timeouts);
            ("errors", Obs.Json.Int r.errors);
            ("lost", Obs.Json.Int r.lost);
          ] );
      ( "cache_hit_rate",
        match cache_hit_rate r with
        | Some rate -> Obs.Json.Float rate
        | None -> Obs.Json.Null );
      ("latency_seconds", Obs.Metrics.summary_json r.latency);
      ("send_lag_seconds", Obs.Metrics.summary_json r.send_lag);
      ( "protocol_errors",
        Obs.Json.List (List.map (fun m -> Obs.Json.String m) r.protocol_errors)
      );
      ( "server_stats",
        match r.server_stats with Some j -> j | None -> Obs.Json.Null );
    ]

(* ---------- saturation sweep ---------- *)

type sweep = {
  sw_config : config;  (** base config; [rps] is overridden per step *)
  sw_lo : float;
  sw_hi : float;
  sw_step : float;
  sw_threshold : float;
  sw_points : (float * report) list;  (** (offered rps, report), ascending *)
  sw_knee : float option;
}

let knee ~threshold points =
  List.fold_left
    (fun acc (offered, achieved) ->
      if achieved >= threshold *. offered then Some offered else acc)
    None points

let sweep ~connect ?(threshold = 0.9) ~lo ~hi ~step cfg =
  if lo <= 0.0 then Error "sweep: LO must be positive"
  else if step <= 0.0 then Error "sweep: STEP must be positive"
  else if hi < lo then Error "sweep: HI must be >= LO"
  else if not (threshold > 0.0 && threshold <= 1.0) then
    Error "sweep: threshold must be in (0, 1]"
  else begin
    (* Per-point scrapes would wait in FIFO order behind a saturated
       queue; the sweep keeps its points lightweight instead. *)
    let cfg = { cfg with scrape_stats = false } in
    let rec go acc rps =
      if rps > hi +. 1e-9 then Ok (List.rev acc)
      else
        match run ~connect { cfg with rps } with
        | Error _ as e -> e
        | Ok r ->
            let acc = (rps, r) :: acc in
            if r.achieved_rps < threshold *. rps then Ok (List.rev acc)
            else go acc (rps +. step)
    in
    match go [] lo with
    | Error _ as e -> e
    | Ok points ->
        let pairs = List.map (fun (o, r) -> (o, r.achieved_rps)) points in
        Ok
          {
            sw_config = { cfg with rps = lo };
            sw_lo = lo;
            sw_hi = hi;
            sw_step = step;
            sw_threshold = threshold;
            sw_points = points;
            sw_knee = knee ~threshold pairs;
          }
  end

let sweep_json sw =
  let point (offered, r) =
    Obs.Json.Obj
      [
        ("offered_rps", Obs.Json.Float offered);
        ("achieved_rps", Obs.Json.Float r.achieved_rps);
        ("elapsed_seconds", Obs.Json.Float r.elapsed);
        ("sent", Obs.Json.Int r.sent);
        ("completed", Obs.Json.Int r.completed);
        ("lost", Obs.Json.Int r.lost);
        ("errors", Obs.Json.Int r.errors);
        ("timeouts", Obs.Json.Int r.timeouts);
        ("latency_seconds", Obs.Metrics.summary_json r.latency);
      ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "sap-loadgen-sweep v1");
      ("config", config_json sw.sw_config);
      ("lo_rps", Obs.Json.Float sw.sw_lo);
      ("hi_rps", Obs.Json.Float sw.sw_hi);
      ("step_rps", Obs.Json.Float sw.sw_step);
      ("threshold", Obs.Json.Float sw.sw_threshold);
      ("points", Obs.Json.List (List.map point sw.sw_points));
      ( "knee_rps",
        match sw.sw_knee with
        | Some k -> Obs.Json.Float k
        | None -> Obs.Json.Null );
    ]

(* ---------- session replay ---------- *)

type session_report = {
  se_cold : bool;
  se_events : int;
  se_deltas : int;
  se_summaries : P.session_summary list;
  se_failures : string list;
}

let session ~connect ~seed ~cold ~resolve_every path base events =
  match connect () with
  | Error m -> Error ("cannot connect: " ^ m)
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let live = Hashtbl.create 64 in
      List.iter (fun (j : Core.Task.t) -> Hashtbl.replace live j.Core.Task.id j) base;
      let next_id = ref 0 and deltas = ref 0 in
      let summaries = ref [] and failures = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
      (* The one response matcher: one in-order round trip, answered by the
         session event [expect] or counted as a failure.  Solution bodies
         are parsed against the client's view of the session's task set as
         of the request, and every returned solution is re-checked: the
         server already checker-verifies, so a failure here means wire
         corruption, not a solver bug. *)
      let exchange what expect req =
        let id = !next_id in
        incr next_id;
        let snapshot = Hashtbl.fold (fun _ j acc -> j :: acc) live [] in
        let tasks_for id' = if id' = id then Some snapshot else None in
        match Sap_server.Client.request ~ic ~oc ~tasks_for (req id) with
        | Ok (P.Session_reply { event; session; summary; solution; _ })
          when event = expect ->
            Option.iter
              (fun s ->
                (match Core.Checker.sap_feasible path solution with
                | Ok () -> ()
                | Error m ->
                    fail "%s returned a checker-rejected solution: %s" what m);
                summaries := s :: !summaries)
              summary;
            Some session
        | Ok (P.Failed { code; message; _ }) ->
            fail "%s failed: [%s] %s" what (P.error_code_to_string code) message;
            None
        | Ok _ ->
            fail "%s: unexpected response" what;
            None
        | Error m ->
            fail "%s: %s" what m;
            None
      in
      (match
         exchange "open" P.Sess_opened (fun id ->
             P.Session_open { id; seed; path; tasks = base })
       with
      | None -> ()
      | Some sid ->
          let ack what req = ignore (exchange what P.Sess_ack req) in
          let add (j : Core.Task.t) =
            incr deltas;
            Hashtbl.replace live j.Core.Task.id j;
            ack "add-task" (fun id -> P.Session_add { id; session = sid; task = j })
          in
          let remove tid =
            incr deltas;
            Hashtbl.remove live tid;
            ack "remove-task" (fun id ->
                P.Session_remove { id; session = sid; task_id = tid })
          in
          let resolve () =
            ignore
              (exchange "resolve" P.Sess_resolved (fun id ->
                   P.Session_resolve { id; session = sid; cold }))
          in
          (* A resize is remove + add under the same id. *)
          let pending = ref 0 in
          List.iter
            (fun ev ->
              (match ev with
              | Corpus.Churn_add j -> add j
              | Corpus.Churn_remove tid -> remove tid
              | Corpus.Churn_resize (tid, demand) -> (
                  match Hashtbl.find_opt live tid with
                  | None -> fail "resize of unknown task %d" tid
                  | Some (j : Core.Task.t) ->
                      remove tid;
                      add
                        (Core.Task.make ~id:tid ~first_edge:j.Core.Task.first_edge
                           ~last_edge:j.Core.Task.last_edge ~demand
                           ~weight:j.Core.Task.weight)));
              incr pending;
              if !pending >= resolve_every then begin
                pending := 0;
                resolve ()
              end)
            events;
          if !pending > 0 || events = [] then resolve ();
          ignore
            (exchange "close" P.Sess_closed (fun id ->
                 P.Session_close { id; session = sid })));
      Ok
        {
          se_cold = cold;
          se_events = List.length events;
          se_deltas = !deltas;
          se_summaries = List.rev !summaries;
          se_failures = List.rev !failures;
        }

let sum_int f ss = List.fold_left (fun acc s -> acc + f s) 0 ss

let solve_ms ss = List.fold_left (fun acc s -> acc +. s.P.s_time_ms) 0.0 ss

let session_json r =
  let ss = r.se_summaries in
  let scheduled, weight =
    match List.rev ss with
    | s :: _ -> (s.P.s_scheduled, s.P.s_weight)
    | [] -> (0, 0.0)
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "sap-session-report v1");
      ("cold", Obs.Json.Bool r.se_cold);
      ("events", Obs.Json.Int r.se_events);
      ("deltas", Obs.Json.Int r.se_deltas);
      ("resolves", Obs.Json.Int (List.length ss));
      ("solve_ms", Obs.Json.Float (solve_ms ss));
      ("warm_seeded", Obs.Json.Int (sum_int (fun s -> s.P.s_warm) ss));
      ("bands_repacked", Obs.Json.Int (sum_int (fun s -> s.P.s_repacked) ss));
      ("bands_reused", Obs.Json.Int (sum_int (fun s -> s.P.s_reused) ss));
      ("final_scheduled", Obs.Json.Int scheduled);
      ("final_weight", Obs.Json.Float weight);
      ("failures", Obs.Json.Int (List.length r.se_failures));
    ]

let pp_session ppf r =
  let ss = r.se_summaries in
  List.iteri
    (fun i s ->
      Format.fprintf ppf
        "%-8s scheduled=%d/%d weight=%.3f bands=%d repacked=%d reused=%d \
         warm=%d time=%.3fms@."
        (if i = 0 then "open" else "resolve")
        s.P.s_scheduled s.P.s_tasks s.P.s_weight s.P.s_bands s.P.s_repacked
        s.P.s_reused s.P.s_warm s.P.s_time_ms)
    ss;
  Format.fprintf ppf
    "session: %d events, %d deltas, %d resolves (%s), %.3fms total solve, %d \
     warm-seeded, %d repacked, %d reused, %d failures@."
    r.se_events r.se_deltas (List.length ss)
    (if r.se_cold then "cold" else "warm")
    (solve_ms ss)
    (sum_int (fun s -> s.P.s_warm) ss)
    (sum_int (fun s -> s.P.s_repacked) ss)
    (sum_int (fun s -> s.P.s_reused) ss)
    (List.length r.se_failures)
