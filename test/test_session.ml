(* Online sessions: band-local repair semantics (untouched bands
   bit-identical, deterministic repacks), the sap-session v1 wire
   round-trips, and the server's session verbs end to end. *)

module Task = Core.Task
module Path = Core.Path
module Proto = Sap_server.Protocol
module Server = Sap_server.Server
module Session = Sap_server.Session

let case = Helpers.case

(* Two adjacent edges per capacity level — one strip-pack band per
   level, so a single-task delta dirties exactly one band. *)
let levels = [| 4; 8; 16; 32 |]

let banded_path () =
  Path.create
    (Array.concat (List.map (fun c -> [| c; c |]) (Array.to_list levels)))

let banded_task prng ~id ~level =
  let first_edge = 2 * level in
  let last_edge = first_edge + Util.Prng.int prng 2 in
  let demand = 1 + Util.Prng.int prng levels.(level) in
  let weight = 1.0 +. Util.Prng.float prng 99.0 in
  Task.make ~id ~first_edge ~last_edge ~demand ~weight

let banded_instance seed ~per_band =
  let prng = Util.Prng.create seed in
  let path = banded_path () in
  let tasks =
    List.concat
      (List.init (Array.length levels) (fun level ->
           List.init per_band (fun k ->
               banded_task prng ~id:((level * per_band) + k) ~level)))
  in
  (path, tasks)

let create_exn ?seed path tasks =
  match Session.create ?seed path tasks with
  | Ok s -> s
  | Error m -> Alcotest.fail ("session create: " ^ m)

let resolve_exn ?cold sess =
  match Session.resolve ?cold sess with
  | Ok r -> r
  | Error m -> Alcotest.fail ("session resolve: " ^ m)

let placements sol =
  List.map (fun ((j : Task.t), h) -> (j.Task.id, h)) (Core.Solution.sort_by_id sol)

(* ---------- band-local repair ---------- *)

let untouched_bands_bit_identical () =
  let path, tasks = banded_instance 5 ~per_band:6 in
  let sess = create_exn path tasks in
  let sol0, s0 = resolve_exn sess in
  Alcotest.(check int) "all bands repacked" (Array.length levels) s0.Session.repacked;
  (* Delta against the level-0 band only. *)
  let extra =
    Task.make ~id:9000 ~first_edge:0 ~last_edge:1 ~demand:2 ~weight:5.0
  in
  (match Session.add_task sess extra with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let sol1, s1 = resolve_exn sess in
  Alcotest.(check int) "one band repacked" 1 s1.Session.repacked;
  Alcotest.(check int) "rest reused" (Array.length levels - 1) s1.Session.reused;
  Alcotest.(check int) "warm-seeded" 1 s1.Session.warm_seeded;
  (* Tasks outside the touched band keep bit-identical placements. *)
  let outside (id, _) = id >= 6 in
  Alcotest.(check (list (pair int int)))
    "untouched bands identical"
    (List.filter outside (placements sol0))
    (List.filter outside (placements sol1));
  (match Core.Checker.sap_feasible path sol1 with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("checker: " ^ m));
  Session.close sess

let cold_repack_is_pure () =
  (* Placements are a pure function of (seed, band task set): reaching
     the same task set through different delta histories and resolving
     cold yields identical solutions. *)
  let path, tasks = banded_instance 6 ~per_band:5 in
  let a = create_exn ~seed:9 path tasks in
  let _ = resolve_exn a in
  let extra =
    Task.make ~id:7000 ~first_edge:2 ~last_edge:3 ~demand:3 ~weight:4.0
  in
  (match Session.add_task a extra with Ok () -> () | Error m -> Alcotest.fail m);
  let _ = resolve_exn a in
  (match Session.remove_task a 7000 with Ok () -> () | Error m -> Alcotest.fail m);
  let sol_a, _ = resolve_exn ~cold:true a in
  let b = create_exn ~seed:9 path tasks in
  let sol_b, _ = resolve_exn ~cold:true b in
  Alcotest.(check (list (pair int int)))
    "same task set, same cold placements" (placements sol_b) (placements sol_a);
  Session.close a;
  Session.close b

let resolve_without_deltas_reuses_everything () =
  let path, tasks = banded_instance 7 ~per_band:4 in
  let sess = create_exn path tasks in
  let sol0, _ = resolve_exn sess in
  let sol1, s1 = resolve_exn sess in
  Alcotest.(check int) "nothing repacked" 0 s1.Session.repacked;
  Alcotest.(check (list (pair int int)))
    "solution unchanged" (placements sol0) (placements sol1);
  Session.close sess

let delta_validation () =
  let path, tasks = banded_instance 8 ~per_band:3 in
  let sess = create_exn path tasks in
  let dup = List.hd tasks in
  (match Session.add_task sess dup with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate id admitted");
  (match Session.remove_task sess 424242 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown id removed");
  (* Over-demand tasks are admitted but never scheduled. *)
  let whale =
    Task.make ~id:8000 ~first_edge:0 ~last_edge:1 ~demand:1000 ~weight:99.0
  in
  (match Session.add_task sess whale with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let sol, _ = resolve_exn sess in
  Alcotest.(check bool)
    "whale unscheduled" false
    (List.exists (fun ((j : Task.t), _) -> j.Task.id = 8000) sol);
  Session.close sess

(* ---------- pinned churn replays ---------- *)

(* Replay [Corpus.generate_churn ~seed ~steps:40] straight against a
   session: resolve after the open and after every event, a resize as
   remove-then-add under the same id.  Returns the number of resolves,
   the total scheduled, the final weight's bits, and the totals of bands
   repacked and warm-seeded. *)
let replay_churn ~cold seed =
  let c = Lab.Corpus.generate_churn ~seed ~steps:40 in
  let sess = create_exn ~seed c.Lab.Corpus.churn_path c.Lab.Corpus.churn_base in
  let resolves = ref 0 and scheduled = ref 0 and weight = ref 0.0 in
  let repacked = ref 0 and warm_seeded = ref 0 in
  let resolve () =
    let _, s = resolve_exn ~cold sess in
    incr resolves;
    scheduled := !scheduled + s.Session.scheduled;
    weight := s.Session.weight;
    repacked := !repacked + s.Session.repacked;
    warm_seeded := !warm_seeded + s.Session.warm_seeded
  in
  let ok = function Ok () -> () | Error m -> Alcotest.fail m in
  resolve ();
  List.iter
    (fun ev ->
      (match ev with
      | Lab.Corpus.Churn_add j -> ok (Session.add_task sess j)
      | Lab.Corpus.Churn_remove id -> ok (Session.remove_task sess id)
      | Lab.Corpus.Churn_resize (id, demand) ->
          let j =
            List.find (fun (j : Task.t) -> j.Task.id = id) (Session.tasks sess)
          in
          ok (Session.remove_task sess id);
          ok
            (Session.add_task sess
               (Task.make ~id ~first_edge:j.Task.first_edge
                  ~last_edge:j.Task.last_edge ~demand ~weight:j.Task.weight)));
      resolve ())
    c.Lab.Corpus.churn_events;
  Session.close sess;
  (!resolves, !scheduled, Int64.bits_of_float !weight, !repacked, !warm_seeded)

(* The values were recorded while the session still carried its own
   copy of the band pipeline: packing bands through [Small.solve_band]
   must not move a placement, a weight bit or a warm start. *)
let pinned_churn_replays () =
  List.iter
    (fun (seed, scheduled, weight_bits, warm_seeded) ->
      List.iter
        (fun cold ->
          let name what =
            Printf.sprintf "seed %d %s: %s" seed
              (if cold then "cold" else "warm")
              what
          in
          let r, s, w, rep, ws = replay_churn ~cold seed in
          Alcotest.(check int) (name "resolves") 41 r;
          Alcotest.(check int) (name "scheduled") scheduled s;
          Alcotest.(check int64) (name "final weight bits") weight_bits w;
          Alcotest.(check int) (name "repacked") (if cold then 246 else 46) rep;
          Alcotest.(check int)
            (name "warm-seeded")
            (if cold then 0 else warm_seeded)
            ws)
        [ false; true ])
    [
      (1, 298, 4647168156738110608L, 38);
      (2, 360, 4647741153649088905L, 40);
      (3, 390, 4649425464966250565L, 40);
    ]

(* ---------- wire round-trips ---------- *)

let roundtrip_request req =
  match Proto.request_of_string (Proto.request_to_string req) with
  | Ok r -> r
  | Error m -> Alcotest.fail ("request did not round-trip: " ^ m)

let session_requests_roundtrip () =
  let path = banded_path () in
  let j = Task.make ~id:3 ~first_edge:0 ~last_edge:1 ~demand:2 ~weight:1.5 in
  let open_req = Proto.Session_open { id = 7; seed = 13; path; tasks = [ j ] } in
  (match roundtrip_request open_req with
  | Proto.Session_open { id = 7; seed = 13; tasks = [ j' ]; _ } ->
      Alcotest.(check int) "task id" 3 j'.Task.id
  | _ -> Alcotest.fail "open mangled");
  (match roundtrip_request (Proto.Session_add { id = 8; session = 91; task = j }) with
  | Proto.Session_add { id = 8; session = 91; task } ->
      Alcotest.(check int) "demand" 2 task.Task.demand
  | _ -> Alcotest.fail "add mangled");
  (match
     roundtrip_request (Proto.Session_remove { id = 9; session = 91; task_id = 3 })
   with
  | Proto.Session_remove { id = 9; session = 91; task_id = 3 } -> ()
  | _ -> Alcotest.fail "remove mangled");
  (match
     roundtrip_request (Proto.Session_resolve { id = 10; session = 91; cold = true })
   with
  | Proto.Session_resolve { id = 10; session = 91; cold = true } -> ()
  | _ -> Alcotest.fail "resolve mangled");
  match roundtrip_request (Proto.Session_close { id = 11; session = 91 }) with
  | Proto.Session_close { id = 11; session = 91 } -> ()
  | _ -> Alcotest.fail "close mangled"

let session_reply_roundtrip () =
  let j = Task.make ~id:4 ~first_edge:2 ~last_edge:3 ~demand:3 ~weight:2.5 in
  let summary =
    {
      Proto.s_tasks = 5;
      s_scheduled = 4;
      s_weight = 17.25;
      s_bands = 3;
      s_repacked = 1;
      s_reused = 2;
      s_warm = 1;
      s_time_ms = 0.75;
    }
  in
  let reply =
    Proto.Session_reply
      {
        id = 12;
        session = 91;
        event = Proto.Sess_resolved;
        summary = Some summary;
        solution = [ (j, 6) ];
      }
  in
  let tasks_for id = if id = 12 then Some [ j ] else None in
  (match Proto.response_of_string ~tasks_for (Proto.response_to_string reply) with
  | Ok
      (Proto.Session_reply
        { id = 12; session = 91; event = Proto.Sess_resolved; summary = Some s; solution })
    ->
      Alcotest.(check int) "tasks" 5 s.Proto.s_tasks;
      Alcotest.(check int) "warm" 1 s.Proto.s_warm;
      Alcotest.(check bool) "weight" true
        (Helpers.close_enough s.Proto.s_weight 17.25);
      (match solution with
      | [ (j', 6) ] -> Alcotest.(check int) "placed id" 4 j'.Task.id
      | _ -> Alcotest.fail "solution body mangled")
  | Ok _ -> Alcotest.fail "resolved reply mangled"
  | Error m -> Alcotest.fail m);
  let ack =
    Proto.Session_reply
      { id = 13; session = 91; event = Proto.Sess_ack; summary = None; solution = [] }
  in
  match Proto.response_of_string ~tasks_for (Proto.response_to_string ack) with
  | Ok
      (Proto.Session_reply
        { id = 13; session = 91; event = Proto.Sess_ack; summary = None; solution = [] })
    ->
      ()
  | Ok _ -> Alcotest.fail "ack mangled"
  | Error m -> Alcotest.fail m

(* ---------- server end to end ---------- *)

let server_session_lifecycle () =
  let path, tasks = banded_instance 10 ~per_band:4 in
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 2 }
      ()
  in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let force req = Server.submit srv req () in
  let sid =
    match force (Proto.Session_open { id = 0; seed = 3; path; tasks }) with
    | Proto.Session_reply
        { session; event = Proto.Sess_opened; summary = Some s; solution; _ } ->
        Alcotest.(check int) "base tasks" (List.length tasks) s.Proto.s_tasks;
        (match Core.Checker.sap_feasible path solution with
        | Ok () -> ()
        | Error m -> Alcotest.fail ("open solution: " ^ m));
        session
    | _ -> Alcotest.fail "open did not return an opened reply"
  in
  let extra =
    Task.make ~id:5000 ~first_edge:0 ~last_edge:0 ~demand:1 ~weight:3.0
  in
  (match force (Proto.Session_add { id = 1; session = sid; task = extra }) with
  | Proto.Session_reply { event = Proto.Sess_ack; session; _ } ->
      Alcotest.(check int) "ack session" sid session
  | _ -> Alcotest.fail "add not acked");
  (match force (Proto.Session_resolve { id = 2; session = sid; cold = false }) with
  | Proto.Session_reply
      { event = Proto.Sess_resolved; summary = Some s; solution; _ } ->
      Alcotest.(check int) "one band repacked" 1 s.Proto.s_repacked;
      Alcotest.(check int) "warm-seeded" 1 s.Proto.s_warm;
      (match Core.Checker.sap_feasible path solution with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("resolve solution: " ^ m))
  | _ -> Alcotest.fail "resolve did not resolve");
  (match force (Proto.Session_remove { id = 3; session = sid; task_id = 5000 }) with
  | Proto.Session_reply { event = Proto.Sess_ack; _ } -> ()
  | _ -> Alcotest.fail "remove not acked");
  (match force (Proto.Session_close { id = 4; session = sid }) with
  | Proto.Session_reply { event = Proto.Sess_closed; _ } -> ()
  | _ -> Alcotest.fail "close not acked");
  match force (Proto.Session_resolve { id = 5; session = sid; cold = false }) with
  | Proto.Failed { code = Proto.Unknown_session; _ } -> ()
  | _ -> Alcotest.fail "resolve after close should fail with unknown-session"

let server_unknown_session () =
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 1 }
      ()
  in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  match
    Server.submit srv (Proto.Session_remove { id = 0; session = 123456; task_id = 1 }) ()
  with
  | Proto.Failed { code = Proto.Unknown_session; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-session"

let () =
  Alcotest.run "session"
    [
      ( "repair",
        [
          case "untouched bands bit-identical" untouched_bands_bit_identical;
          case "cold repack is pure" cold_repack_is_pure;
          case "no deltas, no repacks" resolve_without_deltas_reuses_everything;
          case "delta validation" delta_validation;
          case "churn replays pinned, warm and cold" pinned_churn_replays;
        ] );
      ( "wire",
        [
          case "session requests round-trip" session_requests_roundtrip;
          case "session replies round-trip" session_reply_roundtrip;
        ] );
      ( "server",
        [
          case "lifecycle end to end" server_session_lifecycle;
          case "unknown session" server_unknown_session;
        ] );
    ]
