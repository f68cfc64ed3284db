(* The solve service: content fingerprints, the LRU cache, the persistent
   worker pool, the wire protocol, and the request lifecycle end to end —
   including the acceptance-critical properties: every response is
   checker-valid, a repeated instance is a cache hit, and a graceful
   drain loses no accepted request. *)

module Task = Core.Task
module Path = Core.Path
module Fingerprint = Sap_server.Fingerprint
module Cache = Sap_server.Cache
module Pool = Sap_server.Pool
module Proto = Sap_server.Protocol
module Server = Sap_server.Server
module Transport = Sap_server.Transport
module Client = Sap_server.Client

let case = Helpers.case

(* ---------- fingerprint ---------- *)

let key_of ?(problem = "sap") ?(algorithm = "combine") ?(seed = 42) path tasks =
  Fingerprint.solve_key ~problem ~algorithm ~seed path tasks

let fingerprint_order_invariant =
  Helpers.seed_property "task order does not change the key" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let arr = Array.of_list tasks in
      Util.Prng.shuffle (Util.Prng.create (seed + 1)) arr;
      key_of path tasks = key_of path (Array.to_list arr)
      && key_of path tasks = key_of path (List.rev tasks))

(* The key is the content itself, so changing any one field of any
   instance changes it — a weight by a single ulp included. *)
let fingerprint_injective =
  Helpers.seed_property "any one changed field changes the key" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let g = Util.Prng.create (seed + 7) in
      let base = key_of path tasks in
      let caps = Path.capacities path in
      let e = Util.Prng.int g (Array.length caps) in
      caps.(e) <- caps.(e) + 1;
      let k = Util.Prng.int g (List.length tasks) in
      let j = List.nth tasks k in
      let changed ?(id = j.Task.id) ?(first = j.Task.first_edge)
          ?(last = j.Task.last_edge) ?(demand = j.Task.demand)
          ?(weight = j.Task.weight) () =
        let j' = Task.make ~id ~first_edge:first ~last_edge:last ~demand ~weight in
        key_of path (List.mapi (fun i t -> if i = k then j' else t) tasks)
      in
      let first, last =
        if j.Task.first_edge < j.Task.last_edge then (j.Task.first_edge + 1, j.Task.last_edge)
        else if j.Task.first_edge > 0 then (j.Task.first_edge - 1, j.Task.last_edge)
        else (1, 1)
      in
      List.for_all
        (fun (what, key) ->
          if key = base then Alcotest.failf "seed %d: %s kept the key" seed what;
          true)
        [
          ("capacity", key_of (Path.create caps) tasks);
          ("id", changed ~id:(j.Task.id + 1000) ());
          ("first edge", changed ~first ~last ());
          ("last edge", changed ~last:(j.Task.last_edge + 1) ());
          ("demand", changed ~demand:(j.Task.demand + 1) ());
          ("weight ulp", changed ~weight:(Float.succ j.Task.weight) ());
          ("seed", key_of ~seed:43 path tasks);
          ("algorithm", key_of ~algorithm:"small" path tasks);
          ("problem", key_of ~problem:"round" path tasks);
        ])

let fingerprint_field_sensitivity () =
  let path = Path.create [| 6; 8; 6; 7 |] in
  let t ~id ~first ~last ~d ~w =
    Task.make ~id ~first_edge:first ~last_edge:last ~demand:d ~weight:w
  in
  let tasks =
    [ t ~id:0 ~first:0 ~last:1 ~d:2 ~w:1.5; t ~id:1 ~first:1 ~last:3 ~d:3 ~w:2.0 ]
  in
  let base = key_of path tasks in
  let differs what key = Alcotest.(check bool) what true (key <> base) in
  differs "capacity change"
    (key_of (Path.create [| 6; 8; 6; 8 |]) tasks);
  differs "extra edge" (key_of (Path.create [| 6; 8; 6; 7; 7 |]) tasks);
  differs "demand change"
    (key_of path [ t ~id:0 ~first:0 ~last:1 ~d:1 ~w:1.5; List.nth tasks 1 ]);
  differs "weight change"
    (key_of path [ t ~id:0 ~first:0 ~last:1 ~d:2 ~w:1.25; List.nth tasks 1 ]);
  differs "interval change"
    (key_of path [ t ~id:0 ~first:0 ~last:2 ~d:2 ~w:1.5; List.nth tasks 1 ]);
  differs "id change"
    (key_of path [ t ~id:7 ~first:0 ~last:1 ~d:2 ~w:1.5; List.nth tasks 1 ]);
  differs "dropped task" (key_of path [ List.hd tasks ]);
  differs "algorithm change" (key_of ~algorithm:"small" path tasks);
  differs "seed change" (key_of ~seed:43 path tasks);
  differs "problem change" (key_of ~problem:"round" path tasks)

(* The satellite pin: a [solve] and a [round-solve] for the same
   instance, algorithm name and seed must key differently, always —
   otherwise the shared LRU would serve a SAP solution to a ROUND-SAP
   client (or vice versa). *)
let fingerprint_problem_kind_separates =
  Helpers.seed_property "solve and round-solve keys never collide"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      List.for_all
        (fun algorithm ->
          key_of ~problem:"sap" ~algorithm ~seed:0 path tasks
          <> key_of ~problem:"round" ~algorithm ~seed:0 path tasks)
        [ "bands"; "first-fit"; "exact"; "combine" ])

(* ---------- cache ---------- *)

let cache_lru_eviction_order () =
  let c = Cache.create ~capacity:3 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  (* Touch "a" so "b" becomes the LRU entry. *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  Cache.add c "d" 4;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c");
  Alcotest.(check (option int)) "d kept" (Some 4) (Cache.find c "d");
  let s = Cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "entries" 3 s.Cache.entries;
  (* 1 (a) + 1 (b miss) + 3 = 4 hits, 1 miss. *)
  Alcotest.(check int) "hits" 4 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses

let cache_refresh_on_add () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "a" 10;
  (* refreshes both value and recency *)
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a updated" (Some 10) (Cache.find c "a")

let cache_zero_capacity () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "disabled" None (Cache.find c "a");
  Alcotest.(check int) "no entries" 0 (Cache.stats c).Cache.entries

(* ---------- pool ---------- *)

let pool_exception_propagates () =
  let p = Pool.create ~workers:2 ~queue_capacity:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let fut = Pool.submit p (fun () -> failwith "boom3") in
  (match Pool.await fut with
  | () -> Alcotest.fail "expected failure"
  | exception Failure m -> Alcotest.(check string) "job failure re-raised" "boom3" m);
  (* A failed job does not take its worker down. *)
  Alcotest.(check int) "pool still serves" 42 (Pool.await (Pool.submit p (fun () -> 42)))

let pool_drain_loses_nothing () =
  (* Graceful shutdown under load: 4 producer domains race 40 jobs through
     a 2-worker pool with a tiny queue (so submissions block on the
     high-water mark), then the pool drains.  Every accepted job must have
     run. *)
  let p = Pool.create ~workers:2 ~queue_capacity:2 () in
  let ran = Atomic.make 0 in
  let producers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 10 (fun i ->
                Pool.submit p (fun () ->
                    Atomic.incr ran;
                    i))))
  in
  List.iter (fun d -> ignore (Domain.join d)) producers;
  Pool.shutdown p;
  Alcotest.(check int) "all jobs ran" 40 (Atomic.get ran);
  let s = Pool.stats p in
  Alcotest.(check int) "submitted" 40 s.Pool.submitted;
  Alcotest.(check int) "completed" 40 s.Pool.completed;
  Alcotest.(check bool) "bounded queue respected" true
    (s.Pool.max_queue_depth <= 2)

let pool_rejects_after_shutdown () =
  let p = Pool.create ~workers:1 ~queue_capacity:1 () in
  Pool.shutdown p;
  (match Pool.submit p (fun () -> ()) with
  | _ -> Alcotest.fail "expected Closed"
  | exception Pool.Closed -> ());
  (* Idempotent. *)
  Pool.shutdown p

let pool_await_until_deadline () =
  let p = Pool.create ~workers:1 ~queue_capacity:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let fut = Pool.submit p (fun () -> Unix.sleepf 0.05; 42) in
  let early =
    Pool.await_until fut ~deadline:(Obs.Clock.monotonic_seconds () +. 0.005)
  in
  Alcotest.(check (option int)) "deadline first" None early;
  Alcotest.(check int) "job still completes" 42 (Pool.await fut)

(* A promise is completed by [fulfil], not by a job: an awaiter in
   another domain wakes with the first value, and a later [fulfil] is
   ignored (the router fails or answers each request once, whichever
   comes first). *)
let pool_promise_first_wins () =
  let fut = Pool.promise () in
  let waiter = Domain.spawn (fun () -> Pool.await fut) in
  Unix.sleepf 0.01;
  Pool.fulfil fut "first";
  Pool.fulfil fut "second";
  Alcotest.(check string) "awaiter wakes with the first" "first" (Domain.join waiter);
  Alcotest.(check string) "later fulfil ignored" "first" (Pool.await fut);
  Alcotest.(check (option string)) "no wait once fulfilled" (Some "first")
    (Pool.await_until fut ~deadline:0.0)

(* ---------- protocol ---------- *)

let sample_params seed =
  let g = Util.Prng.create seed in
  {
    Proto.algorithm = Util.Prng.choose g [| "combine"; "small"; "firstfit"; "exact" |];
    seed = Util.Prng.int g 1000;
    timeout_ms = (if Util.Prng.bool g then Some (Util.Prng.int g 10_000) else None);
    cache = Util.Prng.bool g;
  }

let check_instance_equal (p1, ts1) (p2, ts2) =
  Alcotest.(check (array int)) "capacities" (Path.capacities p1) (Path.capacities p2);
  Alcotest.(check int) "task count" (List.length ts1) (List.length ts2);
  List.iter2
    (fun (a : Task.t) (b : Task.t) ->
      Alcotest.(check bool) "task equal" true (a = b))
    ts1 ts2

let request_roundtrip =
  Helpers.seed_property "request print/parse round-trip" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let params = sample_params seed in
      let reqs =
        [
          Proto.Solve { id = seed mod 997; params; path; tasks };
          Proto.Round_solve
            {
              id = seed mod 991;
              algorithm = Util.Prng.choose (Util.Prng.create seed)
                  [| "bands"; "first-fit"; "next-fit"; "exact" |];
              cache = seed mod 2 = 0;
              path;
              tasks;
            };
          Proto.Stats { id = 1 };
          Proto.Ping { id = 2 };
          Proto.Shutdown { id = 3 };
        ]
      in
      List.for_all
        (fun req ->
          match Proto.request_of_string (Proto.request_to_string req) with
          | Error m -> Alcotest.failf "parse failed: %s" m
          | Ok req' -> (
              match (req, req') with
              | Proto.Solve s, Proto.Solve s' ->
                  check_instance_equal (s.path, s.tasks) (s'.path, s'.tasks);
                  s.id = s'.id && s.params = s'.params
              | Proto.Round_solve r, Proto.Round_solve r' ->
                  check_instance_equal (r.path, r.tasks) (r'.path, r'.tasks);
                  r.id = r'.id && r.algorithm = r'.algorithm
                  && r.cache = r'.cache
              | _ -> req = req'))
        reqs)

let nasty_message seed =
  let g = Util.Prng.create seed in
  String.init (Util.Prng.int_in g 0 40) (fun _ -> Char.chr (Util.Prng.int g 256))

let response_roundtrip =
  Helpers.seed_property "response print/parse round-trip" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      ignore path;
      let id = seed mod 997 in
      let tasks_for i = if i = id then Some tasks else None in
      let solution =
        List.filteri (fun i _ -> i mod 2 = 0) tasks
        |> List.mapi (fun i j -> (j, 2 * i))
      in
      let half = (List.length tasks + 1) / 2 in
      let round_of sel =
        List.filteri (fun i _ -> sel i) tasks |> List.map (fun j -> (j, 0))
      in
      let rounds =
        [ round_of (fun i -> i < half); round_of (fun i -> i >= half) ]
      in
      let resps =
        [
          Proto.Round_solved
            {
              id;
              summary =
                {
                  Proto.r_rounds = List.length rounds;
                  r_cached = seed mod 2 = 1;
                  r_time_ms = float_of_int (seed mod 31) /. 3.0;
                };
              rounds;
            };
          Proto.Solved
            {
              id;
              summary =
                {
                  Proto.scheduled = List.length solution;
                  weight = Core.Solution.sap_weight solution;
                  cached = seed mod 2 = 0;
                  time_ms = float_of_int (seed mod 50) /. 7.0;
                };
              solution;
            };
          Proto.Ack { id };
          Proto.Timed_out { id };
          Proto.Failed
            { id; code = Proto.Unknown_algorithm; message = nasty_message seed };
          Proto.Failed { id; code = Proto.Bad_request; message = "plain text with spaces" };
          Proto.Stats_reply
            {
              id;
              stats =
                Obs.Json.Obj
                  [
                    ("requests", Obs.Json.Int seed);
                    ("ratio", Obs.Json.Float 1.5);
                    ("name", Obs.Json.String "srv \"quoted\"");
                  ];
            };
        ]
      in
      List.for_all
        (fun resp ->
          match
            Proto.response_of_string ~tasks_for (Proto.response_to_string resp)
          with
          | Error m -> Alcotest.failf "parse failed: %s" m
          | Ok resp' -> (
              match (resp, resp') with
              | Proto.Stats_reply a, Proto.Stats_reply b ->
                  (* JSON numeric round-trips are structural, not
                     constructor-exact; compare serialized forms. *)
                  a.id = b.id
                  && Obs.Json.to_string a.stats = Obs.Json.to_string b.stats
              | Proto.Solved a, Proto.Solved b ->
                  (* The wire format emits placements sorted by id. *)
                  a.id = b.id && a.summary = b.summary
                  && Core.Solution.sort_by_id a.solution
                     = Core.Solution.sort_by_id b.solution
              | Proto.Round_solved a, Proto.Round_solved b ->
                  a.id = b.id && a.summary = b.summary
                  && List.length a.rounds = List.length b.rounds
                  && List.for_all2
                       (fun r r' ->
                         Core.Solution.sort_by_id r
                         = Core.Solution.sort_by_id r')
                       a.rounds b.rounds
              | _ -> resp = resp'))
        resps)

(* Every request kind, and every response kind, under one id.  The
   error messages hold arbitrary bytes, and double spaces and quotes. *)
let every_request seed id =
  let path, tasks = Helpers.tiny_instance seed in
  [
    Proto.Solve { id; params = sample_params seed; path; tasks };
    Proto.Round_solve { id; algorithm = "bands"; cache = seed mod 2 = 0; path; tasks };
    Proto.Stats { id };
    Proto.Ping { id };
    Proto.Shutdown { id };
    Proto.Session_open { id; seed; path; tasks };
    Proto.Session_add { id; session = seed; task = List.hd tasks };
    Proto.Session_remove { id; session = seed; task_id = 3 };
    Proto.Session_resolve { id; session = seed; cold = seed mod 2 = 0 };
    Proto.Session_close { id; session = seed };
  ]

let every_response seed id =
  let _, tasks = Helpers.tiny_instance seed in
  let solution = List.mapi (fun i j -> (j, i)) tasks in
  let summary =
    {
      Proto.s_tasks = List.length tasks;
      s_scheduled = List.length solution;
      s_weight = Core.Solution.sap_weight solution;
      s_bands = 2;
      s_repacked = 1;
      s_reused = 1;
      s_warm = 1;
      s_time_ms = 0.25;
    }
  in
  [
    Proto.Solved
      {
        id;
        summary =
          {
            Proto.scheduled = List.length solution;
            weight = Core.Solution.sap_weight solution;
            cached = false;
            time_ms = 1.5;
          };
        solution;
      };
    Proto.Round_solved
      {
        id;
        summary = { Proto.r_rounds = 1; r_cached = true; r_time_ms = 0.0 };
        rounds = [ List.map (fun j -> (j, 0)) tasks ];
      };
    Proto.Stats_reply { id; stats = Obs.Json.Obj [ ("requests", Obs.Json.Int seed) ] };
    Proto.Ack { id };
    Proto.Failed { id; code = Proto.Internal; message = nasty_message seed };
    Proto.Failed
      {
        id;
        code = Proto.Unknown_algorithm;
        message = "unknown  algorithm \"nope\"  (have:  a, b)";
      };
    Proto.Timed_out { id };
    Proto.Session_reply
      { id; session = seed; event = Proto.Sess_opened; summary = Some summary; solution };
    Proto.Session_reply
      { id; session = seed; event = Proto.Sess_ack; summary = None; solution = [] };
  ]

(* [with_id] relabels a printed frame exactly as printing it under the
   other id would, so it changes the id token and nothing else. *)
let with_id_changes_only_the_id =
  Helpers.seed_property "with_id changes only the id token" (fun seed ->
      let a = seed mod 997 and b = 1000 + seed in
      let relabels print frames_a frames_b =
        List.for_all2
          (fun x y ->
            let relabelled = Proto.with_id (print x) b in
            relabelled = print y
            || Alcotest.failf "with_id %d:\n%s\nexpected:\n%s" b relabelled (print y))
          frames_a frames_b
      in
      relabels Proto.request_to_string (every_request seed a) (every_request seed b)
      && relabels Proto.response_to_string (every_response seed a)
           (every_response seed b))

let wire_status = function
  | Proto.Solved _ -> "solved"
  | Proto.Round_solved _ -> "round-solved"
  | Proto.Stats_reply _ -> "stats"
  | Proto.Ack _ -> "ok"
  | Proto.Failed _ -> "error"
  | Proto.Timed_out _ -> "timeout"
  | Proto.Session_reply _ -> "session"

let response_header_agrees =
  Helpers.seed_property "response_header agrees with response_of_lines"
    (fun seed ->
      let id = seed mod 997 in
      let _, tasks = Helpers.tiny_instance seed in
      let tasks_for i = if i = id then Some tasks else None in
      List.for_all
        (fun resp ->
          let lines =
            String.split_on_char '\n' (Proto.response_to_string resp)
            |> List.filter (fun l -> l <> "" && l <> "end")
          in
          match
            ( Proto.response_header (List.hd lines),
              Proto.response_of_lines ~tasks_for lines )
          with
          | Ok header, Ok resp' ->
              header = (Proto.response_id resp', wire_status resp')
              && header = (id, wire_status resp)
          | Error m, _ | _, Error m -> Alcotest.failf "parse failed: %s" m)
        (every_response seed id)
      && List.for_all
           (fun header ->
             Result.is_error (Proto.response_header header)
             && Result.is_error (Proto.response_of_lines ~tasks_for [ header ]))
           [ ""; "sap-response v1"; "sap-response v1 x ok"; "sap-request v1 3 ok" ])

let protocol_rejects_malformed () =
  let expect_error what s =
    match Proto.request_of_string s with
    | Ok _ -> Alcotest.failf "%s: unexpectedly parsed" what
    | Error _ -> ()
  in
  expect_error "empty" "";
  expect_error "no terminator" "sap-request v1 0 ping\n";
  expect_error "bad header" "sap-request v2 0 ping\nend\n";
  expect_error "unknown verb" "sap-request v1 0 flush\nend\n";
  expect_error "negative id" "sap-request v1 -4 ping\nend\n";
  expect_error "unknown attribute" "sap-request v1 0 solve wat=1\nsap-instance v1\ncapacities 4\nend\n";
  expect_error "body on ping" "sap-request v1 0 ping\nsap-instance v1\nend\n";
  expect_error "garbage instance" "sap-request v1 0 solve\nnot an instance\nend\n";
  expect_error "sap body on round-solve"
    "sap-request v1 0 round-solve\nsap-instance v1\ncapacities 4\nend\n";
  expect_error "round body on solve"
    "sap-request v1 0 solve\nround-instance v1\ncapacities 4\nend\n";
  expect_error "seed attr on round-solve"
    "sap-request v1 0 round-solve seed=7\nround-instance v1\ncapacities 4\nend\n";
  expect_error "duplicate task id"
    "sap-request v1 0 solve\nsap-instance v1\ncapacities 10 10 10 10\ntask 0 0 1 3 5\ntask 0 2 3 4 6\nend\n";
  expect_error "infinite add-task weight"
    "sap-request v1 0 add-task session=1 task-id=3 first=0 last=1 demand=2 weight=inf\nend\n";
  expect_error "capacity past the input limit"
    "sap-request v1 0 solve\nsap-instance v1\ncapacities 4611686018427387903 \
     4611686018427387903\ntask 0 0 1 3 1\ntask 1 0 1 4611686018427387000 1\nend\n";
  expect_error "add-task demand past the input limit"
    (Printf.sprintf
       "sap-request v1 0 add-task session=1 task-id=3 first=0 last=1 demand=%d \
        weight=1\nend\n"
       (Sap_io.Instance_io.max_quantity + 1));
  match Proto.response_of_string ~tasks_for:(fun _ -> None)
          "sap-response v1 3 solved scheduled=1 weight=1 cached=0 time-ms=1\nsap-solution v1\nend\n"
  with
  | Ok _ -> Alcotest.fail "unknown id unexpectedly resolved"
  | Error _ -> ()

(* ---------- server lifecycle (in-process) ---------- *)

let default_params = Proto.default_solve_params

let mixed_instances n =
  List.init n (fun i -> Helpers.tiny_instance (1000 + (17 * i)))

(* [section.field] of a stats payload, as an int. *)
let int_field section field json =
  match json with
  | Obs.Json.Obj fields -> (
      match List.assoc_opt section fields with
      | Some (Obs.Json.Obj sub) -> (
          match List.assoc_opt field sub with
          | Some (Obs.Json.Int n) -> n
          | _ -> Alcotest.failf "stats: %s.%s missing" section field)
      | _ -> Alcotest.failf "stats: %s section missing" section)
  | _ -> Alcotest.fail "stats payload is not an object"

let e2e_concurrent_solves_and_cache () =
  let config =
    { Server.default_config with Server.workers = Some 4; cache_capacity = 256 }
  in
  let srv = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let instances = mixed_instances 20 in
  let submit_all () =
    (* Admit everything before forcing anything: all solves are in flight
       concurrently across the pool. *)
    let pendings =
      List.mapi
        (fun i (path, tasks) ->
          Server.submit srv
            (Proto.Solve { id = i; params = default_params; path; tasks }))
        instances
    in
    List.map (fun p -> p ()) pendings
  in
  let check_round ~cached responses =
    List.iteri
      (fun i resp ->
        let path, tasks = List.nth instances i in
        match resp with
        | Proto.Solved { id; summary; solution } ->
            Alcotest.(check int) "id echoed" i id;
            Helpers.assert_feasible_sap path solution;
            Alcotest.(check bool) "tasks are the instance's" true
              (Core.Checker.subset_of (Core.Solution.sap_tasks solution) tasks);
            Alcotest.(check bool) "cached flag" cached summary.Proto.cached;
            Alcotest.(check bool) "weight consistent" true
              (Helpers.close_enough summary.Proto.weight
                 (Core.Solution.sap_weight solution))
        | _ -> Alcotest.failf "request %d: unexpected response" i)
      responses
  in
  check_round ~cached:false (submit_all ());
  (* The whole batch again: every solve must be served from the cache. *)
  check_round ~cached:true (submit_all ());
  match Server.handle srv (Proto.Stats { id = 99 }) with
  | Proto.Stats_reply { stats; _ } ->
      (* 20 cold solves + 20 warm + this stats request. *)
      Alcotest.(check int) "requests total" 41 (int_field "requests" "total" stats);
      Alcotest.(check int) "all solved" 40 (int_field "requests" "solved" stats);
      Alcotest.(check int) "cache hits" 20 (int_field "cache" "hits" stats);
      Alcotest.(check int) "cache misses" 20 (int_field "cache" "misses" stats)
  | _ -> Alcotest.fail "stats request failed"

let e2e_error_responses () =
  let srv = Server.create ~config:{ Server.default_config with Server.workers = Some 2 } () in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let path, tasks = Helpers.tiny_instance 7 in
  (match
     Server.handle srv
       (Proto.Solve
          {
            id = 0;
            params = { default_params with Proto.algorithm = "nonsense" };
            path;
            tasks;
          })
   with
  | Proto.Failed { code = Proto.Unknown_algorithm; message; _ } ->
      (* The error lists exactly the registry. *)
      Alcotest.(check string) "names the registry"
        (Printf.sprintf "unknown algorithm %S (have: %s)" "nonsense"
           (String.concat ", " Sap.Solvers.names))
        message
  | _ -> Alcotest.fail "expected unknown-algorithm");
  (* A zero deadline can never be met: the clean timeout response. *)
  match
    Server.handle srv
      (Proto.Solve
         {
           id = 1;
           params = { default_params with Proto.timeout_ms = Some 0 };
           path;
           tasks;
         })
  with
  | Proto.Timed_out { id = 1 } -> ()
  | _ -> Alcotest.fail "expected timeout"

(* [exact] is the budgeted branch and bound, so it answers past the
   brute-force oracle's 16-task cap instead of failing [internal].  The
   instance is `sap_cli gen --profile walk --edges 12 --tasks 24 --seed 5`. *)
let e2e_exact_past_brute_cap () =
  let srv = Server.create ~config:{ Server.default_config with Server.workers = Some 1 } () in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let prng = Util.Prng.create 5 in
  let path =
    Gen.Profiles.random_walk ~prng ~edges:12 ~start:32 ~max_step:4 ~min_cap:8
  in
  let tasks = Gen.Workloads.mixed_tasks ~prng ~path ~n:24 () in
  Alcotest.(check bool) "past the brute cap" true
    (List.length tasks > Exact.Sap_brute.task_cap);
  match
    Server.handle srv
      (Proto.Solve
         {
           id = 0;
           params = { default_params with Proto.algorithm = "exact" };
           path;
           tasks;
         })
  with
  | Proto.Solved { solution; summary; _ } ->
      Helpers.assert_feasible_sap path solution;
      let bb = Exact.Exact_bb.solve path tasks in
      Alcotest.(check bool) "search closed" true bb.Exact.Exact_bb.optimal;
      Alcotest.(check (float 1e-6)) "optimal weight" bb.Exact.Exact_bb.value
        summary.Proto.weight
  | Proto.Failed { message; _ } -> Alcotest.failf "exact failed: %s" message
  | _ -> Alcotest.fail "expected solved"

(* A served class entry solves only its class: beside three δ-small
   tasks, [medium] places the one medium task (the small ones never reach
   the Elevator DP). *)
let e2e_medium_solves_its_class () =
  let srv = Server.create ~config:{ Server.default_config with Server.workers = Some 1 } () in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let path = Path.create [| 1000; 1000; 1000 |] in
  let t id demand weight = Task.make ~id ~first_edge:0 ~last_edge:2 ~demand ~weight in
  let tasks = [ t 0 1 1.0; t 1 2 1.0; t 2 3 1.0; t 3 400 5.0 ] in
  match
    Server.handle srv
      (Proto.Solve
         { id = 0; params = { default_params with Proto.algorithm = "medium" }; path; tasks })
  with
  | Proto.Solved { solution; _ } ->
      Helpers.assert_feasible_sap path solution;
      Alcotest.(check (list int)) "only the medium task" [ 3 ]
        (List.map (fun ((j : Task.t), _) -> j.Task.id) solution)
  | Proto.Failed { message; _ } -> Alcotest.failf "medium failed: %s" message
  | _ -> Alcotest.fail "expected solved"

let e2e_round_solve () =
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 2 } ()
  in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let path = Path.create [| 6; 6; 6 |] in
  let t ~id ~first ~last ~d =
    Task.make ~id ~first_edge:first ~last_edge:last ~demand:d ~weight:1.0
  in
  let tasks =
    [
      t ~id:0 ~first:0 ~last:1 ~d:4;
      t ~id:1 ~first:1 ~last:2 ~d:4;
      t ~id:2 ~first:0 ~last:2 ~d:3;
      t ~id:3 ~first:2 ~last:2 ~d:6;
    ]
  in
  let inst = Round.Instance.create_exn path tasks in
  let round_solve id =
    Server.handle srv
      (Proto.Round_solve { id; algorithm = "bands"; cache = true; path; tasks })
  in
  (match round_solve 0 with
  | Proto.Round_solved { id = 0; summary; rounds } ->
      Alcotest.(check bool) "fresh" false summary.Proto.r_cached;
      Alcotest.(check int) "rounds attr matches body" (List.length rounds)
        summary.Proto.r_rounds;
      (match Round.Checker.check inst rounds with
      | Ok () -> ()
      | Error m -> Alcotest.failf "round checker: %s" m)
  | _ -> Alcotest.fail "expected round-solved");
  (match round_solve 1 with
  | Proto.Round_solved { summary; _ } ->
      Alcotest.(check bool) "repeat is cached" true summary.Proto.r_cached
  | _ -> Alcotest.fail "expected cached round-solved");
  (* The same instance under plain [solve] must miss: the problem kind is
     part of the fingerprint, so the verbs' cache entries are disjoint. *)
  (match
     Server.handle srv
       (Proto.Solve { id = 2; params = default_params; path; tasks })
   with
  | Proto.Solved { summary; _ } ->
      Alcotest.(check bool) "solve not served round entry" false
        summary.Proto.cached
  | _ -> Alcotest.fail "expected solved");
  (match
     Server.handle srv
       (Proto.Round_solve
          { id = 3; algorithm = "nonsense"; cache = true; path; tasks })
   with
  | Proto.Failed { code = Proto.Unknown_algorithm; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-algorithm");
  (* A task that does not fit any round alone is an invalid instance. *)
  match
    Server.handle srv
      (Proto.Round_solve
         {
           id = 4;
           algorithm = "bands";
           cache = true;
           path;
           tasks = [ t ~id:9 ~first:0 ~last:2 ~d:7 ];
         })
  with
  | Proto.Failed { code = Proto.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "expected bad-request"

(* A hit is rebuilt from the request's own tasks, so it must return what
   the miss that filled the entry returned: the same placements in the
   same order and the same summary weight to the bit, whatever order the
   repeat lists its tasks in.  A request one ulp away is a miss. *)
let e2e_hit_replays_the_fill () =
  let srv = Server.create ~config:{ Server.default_config with Server.workers = Some 2 } () in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let same_bits what a b =
    Alcotest.(check int64) what (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  List.iter
    (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let nudged =
        match tasks with
        | j :: rest ->
            Task.make ~id:j.Task.id ~first_edge:j.Task.first_edge
              ~last_edge:j.Task.last_edge ~demand:j.Task.demand
              ~weight:(Float.succ j.Task.weight)
            :: rest
        | [] -> []
      in
      let solve id tasks =
        match Server.handle srv (Proto.Solve { id; params = default_params; path; tasks }) with
        | Proto.Solved { summary; solution; _ } -> (summary, solution)
        | _ -> Alcotest.failf "seed %d: expected solved" seed
      in
      let round_solve id tasks =
        match
          Server.handle srv
            (Proto.Round_solve { id; algorithm = "first-fit"; cache = true; path; tasks })
        with
        | Proto.Round_solved { summary; rounds; _ } -> (summary, rounds)
        | _ -> Alcotest.failf "seed %d: expected round-solved" seed
      in
      let fill, fill_sol = solve 0 tasks in
      let hit, hit_sol = solve 1 (List.rev tasks) in
      Alcotest.(check (pair bool bool)) "miss, then hit" (false, true)
        (fill.Proto.cached, hit.Proto.cached);
      Alcotest.(check bool) "hit places as the fill did" true
        (hit_sol = fill_sol);
      same_bits "hit weight" fill.Proto.weight hit.Proto.weight;
      Alcotest.(check bool) "one ulp away misses" false (fst (solve 2 nudged)).Proto.cached;
      let rfill, rfill_rounds = round_solve 3 tasks in
      let rhit, rhit_rounds = round_solve 4 (List.rev tasks) in
      Alcotest.(check (pair bool bool)) "round miss, then hit" (false, true)
        (rfill.Proto.r_cached, rhit.Proto.r_cached);
      Alcotest.(check bool) "round hit packs as the fill did" true
        (rhit_rounds = rfill_rounds);
      Alcotest.(check bool) "round one ulp away misses" false
        (fst (round_solve 5 nudged)).Proto.r_cached)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let e2e_shutdown_under_load () =
  (* The acceptance property: requests admitted before the shutdown frame
     all complete; requests after it are refused; the ack arrives only
     once the server is quiesced. *)
  let config =
    {
      Server.default_config with
      Server.workers = Some 2;
      queue_capacity = Some 4;
    }
  in
  let srv = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let instances = mixed_instances 10 in
  let pendings =
    List.mapi
      (fun i (path, tasks) ->
        Server.submit srv
          (Proto.Solve { id = i; params = default_params; path; tasks }))
      instances
  in
  let shutdown_pending = Server.submit srv (Proto.Shutdown { id = 100 }) in
  (match shutdown_pending () with
  | Proto.Ack { id = 100 } -> ()
  | _ -> Alcotest.fail "expected shutdown ack");
  Alcotest.(check bool) "draining" true (Server.draining srv);
  (* Late request: refused, not lost silently. *)
  (match
     let path, tasks = List.hd instances in
     Server.handle srv
       (Proto.Solve { id = 50; params = default_params; path; tasks })
   with
  | Proto.Failed { code = Proto.Shutting_down; _ } -> ()
  | _ -> Alcotest.fail "expected shutting-down");
  (* Every accepted request ran before the ack. *)
  Alcotest.(check int) "accepted requests completed" 10
    (int_field "pool" "completed" (Server.stats_json srv));
  List.iteri
    (fun i p ->
      match p () with
      | Proto.Solved _ -> ()
      | _ -> Alcotest.failf "request %d lost by drain" i)
    pendings

(* ---------- per-request telemetry ---------- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let telemetry_histograms_and_log () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
  @@ fun () ->
  let lines = ref [] in
  let lock = Mutex.create () in
  let log line =
    Mutex.lock lock;
    lines := line :: !lines;
    Mutex.unlock lock
  in
  let srv =
    Server.create
      ~config:
        { Server.default_config with Server.workers = Some 2; log = Some log }
      ()
  in
  Fun.protect ~finally:(fun () -> Server.drain srv) @@ fun () ->
  let path, tasks = Helpers.tiny_instance 3 in
  let solve id =
    Server.handle srv (Proto.Solve { id; params = default_params; path; tasks })
  in
  (match solve 1 with
  | Proto.Solved { summary; _ } ->
      Alcotest.(check bool) "first solve is fresh" false summary.Proto.cached
  | _ -> Alcotest.fail "first solve failed");
  (match solve 2 with
  | Proto.Solved { summary; _ } ->
      Alcotest.(check bool) "second solve cached" true summary.Proto.cached
  | _ -> Alcotest.fail "second solve failed");
  (match Server.handle srv (Proto.Ping { id = 3 }) with
  | Proto.Ack { id = 3 } -> ()
  | _ -> Alcotest.fail "ping failed");
  (match Server.handle srv (Proto.Stats { id = 4 }) with
  | Proto.Stats_reply { stats = Obs.Json.Obj fields; _ } ->
      Alcotest.(check bool) "stats schema v2" true
        (List.assoc_opt "schema" fields
        = Some (Obs.Json.String "sap-server-stats v2"))
  | _ -> Alcotest.fail "stats failed");
  (* Latency histograms: every verb lands in .total, solves split into
     .hit/.miss, and only the fresh solve crosses the queue + solver. *)
  let hist name =
    let snap = Obs.Metrics.snapshot () in
    match List.assoc_opt name snap.Obs.Metrics.histograms with
    | Some h -> h
    | None -> Alcotest.failf "histogram %s missing" name
  in
  let total = hist "server.latency.total" in
  Alcotest.(check int) "total count" 4 total.Obs.Metrics.count;
  Alcotest.(check int) "hit count" 1 (hist "server.latency.total.hit").Obs.Metrics.count;
  Alcotest.(check int) "miss count" 1 (hist "server.latency.total.miss").Obs.Metrics.count;
  Alcotest.(check int) "queue count" 1 (hist "server.latency.queue").Obs.Metrics.count;
  Alcotest.(check int) "solve count" 1 (hist "server.latency.solve").Obs.Metrics.count;
  Alcotest.(check bool) "latencies nonnegative" true (total.Obs.Metrics.min >= 0.0);
  Alcotest.(check bool) "some latency nonzero" true (total.Obs.Metrics.max > 0.0);
  (* Structured log: one line per request, in respond order, with the
     fields docs/SERVER.md promises. *)
  let lines = List.rev !lines in
  Alcotest.(check int) "four log lines" 4 (List.length lines);
  List.iter
    (fun line ->
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Printf.sprintf "%S in %S" key line)
            true
            (contains_sub line (key ^ "=")))
        [ "ts"; "req"; "id"; "verb"; "status"; "total_ms" ])
    lines;
  let expect i subs =
    let line = List.nth lines i in
    List.iter
      (fun sub ->
        Alcotest.(check bool)
          (Printf.sprintf "%S in line %d" sub i)
          true (contains_sub line sub))
      subs
  in
  expect 0
    [ "verb=solve"; "cache=miss"; "status=solved"; "queue_ms="; "solve_ms=";
      "scheduled="; "weight=" ];
  expect 1 [ "verb=solve"; "cache=hit"; "status=solved" ];
  expect 2 [ "verb=ping"; "status=ack"; "id=3" ];
  expect 3 [ "verb=stats"; "status=stats"; "id=4" ];
  (* Server-assigned request ids are strictly increasing. *)
  let rid line =
    let marker = " req=" in
    let rec find i =
      if i + String.length marker > String.length line then
        Alcotest.failf "no req= in %S" line
      else if String.sub line i (String.length marker) = marker then
        i + String.length marker
      else find (i + 1)
    in
    let start = find 0 in
    let stop = ref start in
    while
      !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9'
    do
      incr stop
    done;
    int_of_string (String.sub line start (!stop - start))
  in
  let rids = List.map rid lines in
  Alcotest.(check bool) "req ids strictly increasing" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 3) rids) (List.tl rids))

(* ---------- transport over pipes ---------- *)

let with_served_session f =
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 2 } ()
  in
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  let server_domain =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Transport.serve_channels srv ic oc;
        (try flush oc with Sys_error _ -> ());
        (try Unix.close resp_w with Unix.Unix_error _ -> ());
        try Unix.close req_r with Unix.Unix_error _ -> ())
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close req_w with Unix.Unix_error _ -> ());
        Domain.join server_domain;
        (try Unix.close resp_r with Unix.Unix_error _ -> ());
        Server.drain srv)
      (fun () -> f ~req_w ~resp_r)
  in
  result

let serve_channels_session () =
  with_served_session (fun ~req_w ~resp_r ->
      let oc = Unix.out_channel_of_descr req_w in
      let ic = Unix.in_channel_of_descr resp_r in
      let path, tasks = Helpers.tiny_instance 11 in
      output_string oc
        (Proto.request_to_string
           (Proto.Solve { id = 0; params = default_params; path; tasks }));
      (* An unparseable frame must not poison the stream. *)
      output_string oc "sap-request v1 zero ping\nend\n";
      output_string oc (Proto.request_to_string (Proto.Ping { id = 2 }));
      output_string oc (Proto.request_to_string (Proto.Stats { id = 3 }));
      flush oc;
      close_out oc;
      let read_line () = try Some (input_line ic) with End_of_file -> None in
      let tasks_for i = if i = 0 then Some tasks else None in
      let rec read_all acc =
        match Proto.read_frame ~read_line with
        | None -> List.rev acc
        | Some lines -> (
            match Proto.response_of_lines ~tasks_for lines with
            | Ok resp -> read_all (resp :: acc)
            | Error m -> Alcotest.failf "bad response frame: %s" m)
      in
      let responses = read_all [] in
      Alcotest.(check int) "four responses" 4 (List.length responses);
      (match responses with
      | [ Proto.Solved { id = 0; solution; _ };
          Proto.Failed { id = -1; code = Proto.Bad_request; _ };
          Proto.Ack { id = 2 };
          Proto.Stats_reply { id = 3; _ } ] ->
          Helpers.assert_feasible_sap path solution
      | _ -> Alcotest.fail "unexpected response sequence"))

let client_batch_over_pipes () =
  with_served_session (fun ~req_w ~resp_r ->
      let oc = Unix.out_channel_of_descr req_w in
      let ic = Unix.in_channel_of_descr resp_r in
      let instances = mixed_instances 6 in
      let result =
        Client.run_batch ~ic ~oc ~params:default_params ~request_stats:true
          ~request_shutdown:true instances
      in
      Alcotest.(check int) "no transport errors" 0
        (List.length result.Client.transport_errors);
      Alcotest.(check bool) "shutdown acked" true result.Client.shutdown_acked;
      Alcotest.(check bool) "stats present" true (result.Client.stats <> None);
      Array.iteri
        (fun i resp ->
          let path, _ = List.nth instances i in
          match resp with
          | Some (Proto.Solved { solution; _ }) ->
              Helpers.assert_feasible_sap path solution
          | _ -> Alcotest.failf "instance %d: no solved response" i)
        result.Client.responses)

(* ---------- unix socket transport ---------- *)

(* Serve on a fresh Unix socket while [f socket_path] runs, then stop:
   a stop request wakes the idle listener immediately (self-pipe, not a
   poll timeout) and removes the socket. *)
let with_unix_server f =
  let dir = Filename.temp_file "sap_sock" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let socket_path = Filename.concat dir "s.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove socket_path with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 2 } ()
  in
  let stop = Transport.stopper () in
  let bound = Atomic.make false in
  let server_dom =
    Domain.spawn (fun () ->
        Transport.serve_unix
          ~on_bound:(fun _ -> Atomic.set bound true)
          ~stop srv ~socket_path)
  in
  let rec wait_bound n =
    if not (Atomic.get bound) then
      if n = 0 then Alcotest.fail "server never bound"
      else begin
        Unix.sleepf 0.01;
        wait_bound (n - 1)
      end
  in
  wait_bound 500;
  f socket_path;
  let t0 = Unix.gettimeofday () in
  Transport.request_stop stop;
  Domain.join server_dom;
  Transport.close_stopper stop;
  Alcotest.(check bool) "stop was prompt" true (Unix.gettimeofday () -. t0 < 2.0);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path);
  Server.drain srv

let serve_unix_concurrent_and_stop () =
  with_unix_server @@ fun socket_path ->
  (* A full session: solve + stats on one connection. *)
  let session i =
    match Client.connect_unix socket_path with
    | Error m -> Alcotest.failf "connect: %s" m
    | Ok fd ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            let path, tasks = Helpers.tiny_instance (100 + i) in
            output_string oc
              (Proto.request_to_string
                 (Proto.Solve { id = i; params = default_params; path; tasks }));
            output_string oc
              (Proto.request_to_string (Proto.Stats { id = 1000 + i }));
            flush oc;
            (* Pipeline-then-half-close, like Client.run_batch.  (Since
               the response pump, half-closing is optional — responses
               flush as they complete — but it remains the batch idiom.) *)
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            let read_line () =
              try Some (input_line ic) with End_of_file -> None
            in
            let tasks_for id = if id = i then Some tasks else None in
            let read_resp () =
              match Proto.read_frame ~read_line with
              | None -> Alcotest.failf "session %d: eof before reply" i
              | Some lines -> (
                  match Proto.response_of_lines ~tasks_for lines with
                  | Ok r -> r
                  | Error m -> Alcotest.failf "session %d: %s" i m)
            in
            let first = read_resp () in
            let second = read_resp () in
            (match first with
            | Proto.Solved { id; solution; _ } ->
                Alcotest.(check int) "solve id echoed" i id;
                Helpers.assert_feasible_sap path solution
            | _ -> Alcotest.failf "session %d: expected solved" i);
            match second with
            | Proto.Stats_reply { id; _ } ->
                Alcotest.(check int) "stats id echoed" (1000 + i) id
            | _ -> Alcotest.failf "session %d: expected stats" i)
  in
  (* Two sessions in flight at once: the accept loop must serve both. *)
  let other = Domain.spawn (fun () -> session 1) in
  session 2;
  Domain.join other

(* A frame whose body is rejected is answered under its own request id,
   so a pipelining client can tell which request failed; only a header
   that does not parse is answered under id -1. *)
let serve_unix_rejected_body_keeps_id () =
  with_unix_server @@ fun socket_path ->
  match Client.connect_unix socket_path with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok fd ->
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      let huge = (1 lsl 62) - 1 in
      Printf.fprintf oc
        "sap-request v1 7 solve\nsap-instance v1\ncapacities %d %d\ntask 0 0 1 3 1\nend\n"
        huge huge;
      output_string oc "sap-request v1 zero ping\nend\n";
      flush oc;
      let read_line () = try Some (input_line ic) with End_of_file -> None in
      let header () =
        match Proto.read_frame ~read_line with
        | Some (header :: _) -> header
        | _ -> Alcotest.fail "no response frame"
      in
      let starts what prefix line =
        Alcotest.(check string) what prefix (String.sub line 0 (min (String.length line) (String.length prefix)))
      in
      starts "rejected body under its id" "sap-response v1 7 error code=bad-request" (header ());
      starts "unparseable header under -1" "sap-response v1 -1 error code=bad-request" (header ())

let () =
  Alcotest.run "server"
    [
      ( "fingerprint",
        [
          fingerprint_order_invariant;
          fingerprint_problem_kind_separates;
          fingerprint_injective;
          case "field sensitivity" fingerprint_field_sensitivity;
        ] );
      ( "cache",
        [
          case "lru eviction order" cache_lru_eviction_order;
          case "add refreshes recency" cache_refresh_on_add;
          case "zero capacity disables" cache_zero_capacity;
        ] );
      ( "pool",
        [
          case "exceptions propagate" pool_exception_propagates;
          case "drain loses nothing" pool_drain_loses_nothing;
          case "closed after shutdown" pool_rejects_after_shutdown;
          case "await_until deadline" pool_await_until_deadline;
          case "promise: first fulfil wins" pool_promise_first_wins;
        ] );
      ( "protocol",
        [
          request_roundtrip;
          response_roundtrip;
          with_id_changes_only_the_id;
          response_header_agrees;
          case "rejects malformed" protocol_rejects_malformed;
        ] );
      ( "lifecycle",
        [
          case "concurrent solves + cache hits" e2e_concurrent_solves_and_cache;
          case "error + timeout responses" e2e_error_responses;
          case "exact past the brute cap" e2e_exact_past_brute_cap;
          case "medium solves its own class" e2e_medium_solves_its_class;
          case "round-solve lifecycle + cache separation" e2e_round_solve;
          case "a hit replays the fill" e2e_hit_replays_the_fill;
          case "graceful drain under load" e2e_shutdown_under_load;
        ] );
      ( "telemetry",
        [ case "latency histograms + structured log" telemetry_histograms_and_log ] );
      ( "transport",
        [
          case "serve_channels session" serve_channels_session;
          case "client batch over pipes" client_batch_over_pipes;
          case "unix socket: concurrent sessions + stop" serve_unix_concurrent_and_stop;
          case "unix socket: a rejected body keeps its id"
            serve_unix_rejected_body_keeps_id;
        ] );
    ]
