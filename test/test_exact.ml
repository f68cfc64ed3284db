module Task = Core.Task
module Path = Core.Path
module Ring = Core.Ring

let case = Helpers.case

let mk ?(w = 1.0) id first last d =
  Task.make ~id ~first_edge:first ~last_edge:last ~demand:d ~weight:w

(* ---------- Sap_brute ---------- *)

let brute_known_knapsack () =
  (* All tasks share one edge: SAP = knapsack by demand. *)
  let p = Path.create [| 10 |] in
  let ts = [ mk ~w:10.0 0 0 0 5; mk ~w:9.0 1 0 0 5; mk ~w:15.0 2 0 0 9 ] in
  Alcotest.(check bool) "opt 19" true
    (Helpers.close_enough (Exact.Sap_brute.value p ts) 19.0)

let brute_fig1a_drops_one () =
  let path, tasks = Gen.Paper_figures.fig1a in
  Alcotest.(check (option unit)) "not realizable" None
    (Option.map ignore (Exact.Sap_brute.realizable path tasks));
  (* But UFPP accepts both tasks, and SAP keeps exactly one. *)
  Helpers.assert_feasible_ufpp path tasks;
  Alcotest.(check bool) "sap keeps one" true
    (Helpers.close_enough (Exact.Sap_brute.value path tasks) 1.0)

let brute_realizable_stack () =
  let p = Path.create [| 9; 9 |] in
  let ts = [ mk 0 0 1 3; mk 1 0 1 3; mk 2 0 1 3 ] in
  match Exact.Sap_brute.realizable p ts with
  | None -> Alcotest.fail "stackable set reported unrealizable"
  | Some sol -> Helpers.assert_feasible_sap p sol

let brute_beats_heuristics =
  Helpers.seed_property ~count:40 "exact >= first fit and large solver"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let opt = Exact.Sap_brute.value path tasks in
      let ff, _ = Dsa.First_fit.pack path tasks in
      let large = Sap.Large.solve path tasks in
      opt >= Core.Solution.sap_weight ff -. 1e-9
      && opt >= Core.Solution.sap_weight large -. 1e-9)

let brute_solution_feasible =
  Helpers.seed_property ~count:40 "exact solution is feasible and a subset"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let sol = Exact.Sap_brute.solve path tasks in
      Result.is_ok (Core.Checker.sap_feasible path sol)
      && Core.Checker.subset_of (Core.Solution.sap_tasks sol) tasks)

let brute_at_most_ufpp =
  Helpers.seed_property ~count:40 "SAP opt <= UFPP opt" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      Exact.Sap_brute.value path tasks <= Ufpp.Exact_bb.value path tasks +. 1e-9)

(* ---------- Ring_brute ---------- *)

let ring_brute_known () =
  (* Triangle ring, capacity 2 everywhere, three unit tasks — all fit. *)
  let tk id src dst =
    Core.Ring.make_task ~id ~src ~dst ~demand:1 ~weight:1.0 ~t_edges:3
  in
  let r = Core.Ring.create [| 2; 2; 2 |] [ tk 0 0 1; tk 1 1 2; tk 2 2 0 ] in
  Alcotest.(check bool) "all three" true
    (Helpers.close_enough (Exact.Ring_brute.value r) 3.0)

let ring_brute_chooses_route () =
  (* One edge is blocked (capacity 1 vs demand 2): the task must route the
     other way. *)
  let tk = Core.Ring.make_task ~id:0 ~src:0 ~dst:1 ~demand:2 ~weight:5.0 ~t_edges:3 in
  let r = Core.Ring.create [| 1; 4; 4 |] [ tk ] in
  let sol = Exact.Ring_brute.solve r in
  Alcotest.(check int) "task taken" 1 (List.length sol);
  (match sol with
  | [ (_, _, dir) ] ->
      Alcotest.(check bool) "routed ccw (avoiding edge 0)" true (dir = Core.Ring.Ccw)
  | _ -> Alcotest.fail "unexpected shape");
  Helpers.check_ok "feasible" (Core.Ring.feasible r sol)

let ring_brute_feasible =
  Helpers.seed_property ~count:25 "ring brute output feasible" (fun seed ->
      let prng = Util.Prng.create seed in
      let ring =
        Gen.Ring_gen.random ~prng ~edges:(4 + (seed mod 3)) ~n:5 ~cap_lo:4
          ~cap_hi:10 ~ratio_lo:0.2 ~ratio_hi:0.9
      in
      Result.is_ok (Core.Ring.feasible ring (Exact.Ring_brute.solve ring)))

(* ---------- Exact_bb: metamorphic properties ---------- *)

let mirror path tasks =
  let m = Path.num_edges path in
  let caps = Path.capacities path in
  ( Path.create (Array.init m (fun e -> caps.(m - 1 - e))),
    List.map
      (fun (j : Task.t) ->
        Task.make ~id:j.Task.id ~first_edge:(m - 1 - j.Task.last_edge)
          ~last_edge:(m - 1 - j.Task.first_edge) ~demand:j.Task.demand
          ~weight:j.Task.weight)
      tasks )

let bb_mirror_invariant =
  Helpers.seed_property ~count:40 "mirroring keeps bb and brute OPT"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let path', tasks' = mirror path tasks in
      Helpers.close_enough (Exact.Exact_bb.value path tasks)
        (Exact.Exact_bb.value path' tasks')
      && Helpers.close_enough (Exact.Sap_brute.value path tasks)
           (Exact.Sap_brute.value path' tasks'))

let shuffled seed tasks =
  let a = Array.of_list tasks in
  Util.Prng.shuffle (Util.Prng.create seed) a;
  Array.to_list a

(* The search order is a function of the tasks alone (ids break ties), so
   the input order must not move the optimum, the solution or the work. *)
let bb_permutation_invariant =
  Helpers.seed_property ~count:40 "permuting tasks keeps the search"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let a = Exact.Exact_bb.solve path tasks in
      let b = Exact.Exact_bb.solve path (shuffled seed tasks) in
      a.Exact.Exact_bb.value = b.Exact.Exact_bb.value
      && a.Exact.Exact_bb.solution = b.Exact.Exact_bb.solution
      && a.Exact.Exact_bb.nodes = b.Exact.Exact_bb.nodes)

(* [sap_cli gen --profile valley --tasks n --seed 42]. *)
let valley n =
  let prng = Util.Prng.create 42 in
  let path = Gen.Profiles.valley ~edges:12 ~high:32 ~low:8 in
  (path, Gen.Workloads.mixed_tasks ~prng ~path ~n ())

let bb_permutation_valley () =
  List.iter
    (fun (n, nodes) ->
      let path, tasks = valley n in
      let base = Exact.Exact_bb.solve path tasks in
      Alcotest.(check int) (Printf.sprintf "valley %d nodes" n) nodes
        base.Exact.Exact_bb.nodes;
      for s = 1 to 4 do
        let out = Exact.Exact_bb.solve path (shuffled s tasks) in
        let what = Printf.sprintf "valley %d, shuffle %d" n s in
        Alcotest.(check (float 0.0)) (what ^ ": value") base.Exact.Exact_bb.value
          out.Exact.Exact_bb.value;
        Alcotest.(check bool) (what ^ ": solution") true
          (base.Exact.Exact_bb.solution = out.Exact.Exact_bb.solution);
        Alcotest.(check int) (what ^ ": nodes") nodes out.Exact.Exact_bb.nodes
      done)
    [ (12, 8_678); (14, 44_564) ]

let random_ring seed =
  let prng = Util.Prng.create seed in
  Gen.Ring_gen.random ~prng ~edges:(4 + (seed mod 3)) ~n:(2 + (seed mod 5)) ~cap_lo:4
    ~cap_hi:12 ~ratio_lo:0.0 ~ratio_hi:0.9

(* Edge [e] of the rotated ring is edge [e + s] of the original, so
   vertex [v] becomes [v - s]. *)
let rotate (r : Ring.t) s =
  let m = Ring.num_edges r in
  let v x = (x - s + m) mod m in
  Ring.create
    (Array.init m (fun e -> r.Ring.capacities.((e + s) mod m)))
    (Array.to_list
       (Array.map
          (fun (t : Ring.task) ->
            Ring.make_task ~id:t.Ring.id ~src:(v t.Ring.src) ~dst:(v t.Ring.dst)
              ~demand:t.Ring.demand ~weight:t.Ring.weight ~t_edges:m)
          r.Ring.tasks))

let bb_ring_rotation_invariant =
  Helpers.seed_property ~count:30 "rotating a ring keeps its OPT"
    (fun seed ->
      let r = random_ring seed in
      let s = 1 + (seed mod (Ring.num_edges r - 1)) in
      Helpers.close_enough (Exact.Exact_bb.solve_ring r).Exact.Exact_bb.value
        (Exact.Exact_bb.solve_ring (rotate r s)).Exact.Exact_bb.value)

(* A solution on the ring cut at any edge routes every task away from
   the cut, so it is a ring solution too. *)
let bb_ring_dominates_cut =
  Helpers.seed_property ~count:30 "ring OPT >= OPT at its min cut"
    (fun seed ->
      let r = random_ring seed in
      let caps = r.Ring.capacities in
      let cut_edge = ref 0 in
      Array.iteri (fun e c -> if c < caps.(!cut_edge) then cut_edge := e) caps;
      let path, tasks, _ = Ring.cut r ~cut_edge:!cut_edge in
      (Exact.Exact_bb.solve_ring r).Exact.Exact_bb.value
      >= Exact.Exact_bb.value path tasks -. 1e-9)

(* ---------- Exact_bb: pinned optima and node counts ---------- *)

(* (value, nodes) of fixed instances, so any change to the search order,
   the cuts or the memo shows up here first. *)
let check_pinned what (out : _ Exact.Exact_bb.outcome) ~value ~nodes ~optimal =
  Alcotest.(check (float 1e-9)) (what ^ ": value") value out.Exact.Exact_bb.value;
  Alcotest.(check int) (what ^ ": nodes") nodes out.Exact.Exact_bb.nodes;
  Alcotest.(check bool) (what ^ ": optimal") optimal out.Exact.Exact_bb.optimal

let bb_pinned_paths () =
  let solve ?max_nodes (path, tasks) = Exact.Exact_bb.solve ?max_nodes path tasks in
  check_pinned "valley 12" (solve (valley 12)) ~value:256.33276953016349 ~nodes:8_678
    ~optimal:true;
  check_pinned "valley 14" (solve (valley 14)) ~value:265.88928795509935
    ~nodes:44_564 ~optimal:true;
  let out = solve ~max_nodes:1_000 (valley 12) in
  check_pinned "valley 12, 1,000-node budget" out ~value:241.22508145312574
    ~nodes:1_001 ~optimal:false;
  Alcotest.(check (float 1e-9)) "valley 12, budget: root LP bound" 291.71376649570414
    out.Exact.Exact_bb.upper_bound;
  let prng = Util.Prng.create 11 in
  let path = Gen.Profiles.uniform ~edges:8 ~capacity:6 in
  check_pinned "mixed 40"
    (solve (path, Gen.Workloads.mixed_tasks ~prng ~path ~n:40 ()))
    ~value:521.85202431249729 ~nodes:10_777 ~optimal:true

let pinned_ring ~seed ~edges ~n =
  Gen.Ring_gen.random ~prng:(Util.Prng.create seed) ~edges ~n ~cap_lo:4 ~cap_hi:12
    ~ratio_lo:0.0 ~ratio_hi:0.9

let bb_pinned_rings () =
  let r = pinned_ring ~seed:7 ~edges:6 ~n:10 in
  check_pinned "ring 7/6/10" (Exact.Exact_bb.solve_ring r) ~value:381.07422827529649
    ~nodes:46_063 ~optimal:true;
  let out = Exact.Exact_bb.solve_ring ~max_nodes:500 r in
  check_pinned "ring 7/6/10, 500-node budget" out ~value:376.60851795099802
    ~nodes:501 ~optimal:false;
  Alcotest.(check (float 1e-9)) "ring budget: total weight bound" 528.12123584276662
    out.Exact.Exact_bb.upper_bound;
  check_pinned "ring 5/7/11"
    (Exact.Exact_bb.solve_ring (pinned_ring ~seed:5 ~edges:7 ~n:11))
    ~value:362.37163356467363 ~nodes:39_002 ~optimal:true;
  check_pinned "ring 9/5/9"
    (Exact.Exact_bb.solve_ring (pinned_ring ~seed:9 ~edges:5 ~n:9))
    ~value:363.53565433191619 ~nodes:3_887 ~optimal:true

let () =
  Alcotest.run "exact"
    [
      ( "sap_brute",
        [
          case "knapsack edge" brute_known_knapsack;
          case "fig1a" brute_fig1a_drops_one;
          case "realizable stack" brute_realizable_stack;
          brute_beats_heuristics;
          brute_solution_feasible;
          brute_at_most_ufpp;
        ] );
      ( "ring_brute",
        [
          case "triangle" ring_brute_known;
          case "route choice" ring_brute_chooses_route;
          ring_brute_feasible;
        ] );
      (* Suite names stay within the width of "ring_brute": Alcotest sizes
         its name column by the longest one and truncates test names past it. *)
      ( "exact_bb",
        [
          bb_mirror_invariant;
          bb_permutation_invariant;
          case "permuted valleys" bb_permutation_valley;
          bb_ring_rotation_invariant;
          bb_ring_dominates_cut;
          case "pinned paths" bb_pinned_paths;
          case "pinned rings" bb_pinned_rings;
        ] );
    ]
