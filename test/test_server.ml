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
      key_of path tasks = key_of path (Array.to_list arr))

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

let fnv_reference () =
  (* Published FNV-1a/64 test vectors. *)
  Alcotest.(check string) "empty" "cbf29ce484222325"
    (Printf.sprintf "%016Lx" (Fingerprint.fnv1a64 ""));
  Alcotest.(check string) "a" "af63dc4c8601ec8c"
    (Printf.sprintf "%016Lx" (Fingerprint.fnv1a64 "a"));
  Alcotest.(check string) "foobar" "85944171f73967e8"
    (Printf.sprintf "%016Lx" (Fingerprint.fnv1a64 "foobar"))

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
  let futures = List.concat_map Domain.join producers in
  Pool.shutdown p;
  Alcotest.(check int) "all jobs ran" 40 (Atomic.get ran);
  List.iter
    (fun fut -> Alcotest.(check bool) "future completed" true (Pool.completed fut))
    futures;
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
  match Proto.response_of_string ~tasks_for:(fun _ -> None)
          "sap-response v1 3 solved scheduled=1 weight=1 cached=0 time-ms=1\nsap-solution v1\nend\n"
  with
  | Ok _ -> Alcotest.fail "unknown id unexpectedly resolved"
  | Error _ -> ()

(* ---------- server lifecycle (in-process) ---------- *)

let default_params = Proto.default_solve_params

let mixed_instances n =
  List.init n (fun i -> Helpers.tiny_instance (1000 + (17 * i)))

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
    List.map (fun p -> p.Server.force ()) pendings
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
  in
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
  (match shutdown_pending.Server.force () with
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
  List.iteri
    (fun i p ->
      Alcotest.(check bool) "accepted request completed" true (p.Server.ready ());
      match p.Server.force () with
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

let serve_unix_concurrent_and_stop () =
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
  Domain.join other;
  (* A stop request wakes the idle listener immediately (self-pipe, not
     a poll timeout) and removes the socket. *)
  let t0 = Unix.gettimeofday () in
  Transport.request_stop stop;
  Domain.join server_dom;
  Transport.close_stopper stop;
  Alcotest.(check bool) "stop was prompt" true (Unix.gettimeofday () -. t0 < 2.0);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path);
  Server.drain srv

let () =
  Alcotest.run "server"
    [
      ( "fingerprint",
        [
          fingerprint_order_invariant;
          fingerprint_problem_kind_separates;
          case "field sensitivity" fingerprint_field_sensitivity;
          case "fnv1a64 vectors" fnv_reference;
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
        ] );
      ( "protocol",
        [
          request_roundtrip;
          response_roundtrip;
          case "rejects malformed" protocol_rejects_malformed;
        ] );
      ( "lifecycle",
        [
          case "concurrent solves + cache hits" e2e_concurrent_solves_and_cache;
          case "error + timeout responses" e2e_error_responses;
          case "exact past the brute cap" e2e_exact_past_brute_cap;
          case "round-solve lifecycle + cache separation" e2e_round_solve;
          case "graceful drain under load" e2e_shutdown_under_load;
        ] );
      ( "telemetry",
        [ case "latency histograms + structured log" telemetry_histograms_and_log ] );
      ( "transport",
        [
          case "serve_channels session" serve_channels_session;
          case "client batch over pipes" client_batch_over_pipes;
          case "unix socket: concurrent sessions + stop" serve_unix_concurrent_and_stop;
        ] );
    ]
