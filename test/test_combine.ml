module Task = Core.Task
module Path = Core.Path

let case = Helpers.case

let combine_feasible =
  Helpers.seed_property ~count:40 "combined solution feasible + subset"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:14 seed in
      let sol = Sap.Combine.solve path tasks in
      Result.is_ok (Core.Checker.sap_feasible path sol)
      && Core.Checker.subset_of (Core.Solution.sap_tasks sol) tasks)

let combine_ratio_vs_exact =
  (* Theorem 4's asymptotic bound is 9+eps; at the default finite
     parameters (eps = 0.5 -> ell = 4) the instantiated constant is
     (4+eps) + 3 + 3 ~ 10.  Measured headroom is large; assert the
     instantiated bound. *)
  Helpers.seed_property ~count:25 "ratio <= instantiated Thm 4 bound vs exact" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:9 seed in
      let sol = Sap.Combine.solve path tasks in
      let opt = Exact.Sap_brute.value path tasks in
      opt <= 1e-9 || Core.Solution.sap_weight sol >= (opt /. 10.5) -. 1e-9)

let combine_ratio_vs_lp =
  Helpers.seed_property ~count:15 "ratio <= 9+eps vs LP bound on larger instances"
    (fun seed ->
      let g = Util.Prng.create seed in
      let path = Helpers.random_path g in
      let tasks = Gen.Workloads.mixed_tasks ~prng:g ~path ~n:25 () in
      let sol = Sap.Combine.solve path tasks in
      let lp = Lp.Ufpp_lp.upper_bound path tasks in
      lp <= 1e-9 || Core.Solution.sap_weight sol >= (lp /. 10.5) -. 1e-9)

let combine_report_consistent =
  Helpers.seed_property ~count:25 "report: chosen part is the heaviest" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let r = Sap.Combine.solve_report path tasks in
      let w s = Core.Solution.sap_weight s in
      let best =
        Float.max
          (w r.Sap.Combine.small_solution)
          (Float.max (w r.Sap.Combine.medium_solution) (w r.Sap.Combine.large_solution))
      in
      Helpers.close_enough (w r.Sap.Combine.solution) best)

let combine_parts_feasible =
  Helpers.seed_property ~count:25 "all three part solutions feasible" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let r = Sap.Combine.solve_report path tasks in
      Result.is_ok (Core.Checker.sap_feasible path r.Sap.Combine.small_solution)
      && Result.is_ok (Core.Checker.sap_feasible path r.Sap.Combine.medium_solution)
      && Result.is_ok (Core.Checker.sap_feasible path r.Sap.Combine.large_solution))

let combine_pure_large () =
  (* A pure 1/2-large instance: small and medium parts are empty, large
     carries everything. *)
  let path, tasks = Helpers.tiny_ratio_instance ~lo:0.6 ~hi:1.0 3 in
  let r = Sap.Combine.solve_report path tasks in
  Alcotest.(check int) "small empty" 0 (List.length r.Sap.Combine.small_solution);
  Alcotest.(check int) "medium empty" 0 (List.length r.Sap.Combine.medium_solution);
  Alcotest.(check bool) "large chosen" true (r.Sap.Combine.chosen = Sap.Combine.Large_part)

let combine_empty () =
  let path = Path.uniform ~edges:3 ~capacity:8 in
  Alcotest.(check int) "empty" 0 (List.length (Sap.Combine.solve path []))

let combine_single_task () =
  let path = Path.uniform ~edges:3 ~capacity:8 in
  let t = Task.make ~id:0 ~first_edge:0 ~last_edge:2 ~demand:5 ~weight:7.0 in
  let sol = Sap.Combine.solve path [ t ] in
  Alcotest.(check bool) "takes the only task" true
    (Helpers.close_enough (Core.Solution.sap_weight sol) 7.0)

let combine_drops_unfit () =
  let path = Path.uniform ~edges:2 ~capacity:4 in
  let huge = Task.make ~id:0 ~first_edge:0 ~last_edge:1 ~demand:9 ~weight:100.0 in
  let ok = Task.make ~id:1 ~first_edge:0 ~last_edge:0 ~demand:2 ~weight:1.0 in
  let sol = Sap.Combine.solve path [ huge; ok ] in
  Alcotest.(check bool) "unfit dropped, fit kept" true
    (Helpers.close_enough (Core.Solution.sap_weight sol) 1.0)

let combine_deterministic () =
  let path, tasks = Helpers.tiny_instance ~max_tasks:12 77 in
  let a = Sap.Combine.solve path tasks in
  let b = Sap.Combine.solve path tasks in
  Alcotest.(check bool) "same result" true
    (Core.Solution.sort_by_id a = Core.Solution.sort_by_id b)

let combine_parallel_equals_sequential =
  Helpers.seed_property ~count:15 "parallel = sequential" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let seq = Sap.Combine.solve path tasks in
      let par =
        Sap.Combine.solve
          ~config:{ Sap.Combine.default_config with Sap.Combine.parallel = true }
          path tasks
      in
      Core.Solution.sort_by_id seq = Core.Solution.sort_by_id par)

let combine_beats_every_part_alone =
  (* Lemma 3 machinery: the combined answer is at least each specialist's
     answer on its own sub-instance. *)
  Helpers.seed_property ~count:20 "combined >= each specialist" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let r = Sap.Combine.solve_report path tasks in
      let w = Core.Solution.sap_weight in
      w r.Sap.Combine.solution >= w r.Sap.Combine.small_solution -. 1e-9
      && w r.Sap.Combine.solution >= w r.Sap.Combine.medium_solution -. 1e-9
      && w r.Sap.Combine.solution >= w r.Sap.Combine.large_solution -. 1e-9)

(* ---------- the algorithm registry ---------- *)

(* Uniform capacities, so [sapu] is in scope too. *)
let uniform_instance seed =
  let prng = Util.Prng.create seed in
  let path =
    Gen.Profiles.uniform
      ~edges:(Util.Prng.int_in prng 3 8)
      ~capacity:(Util.Prng.int_in prng 4 20)
  in
  let n = Util.Prng.int_in prng 2 10 in
  (path, Gen.Workloads.mixed_tasks ~prng ~path ~n ())

let registry_feasible =
  Helpers.seed_property ~count:20 "every entry feasible on uniform instances"
    (fun seed ->
      let path, tasks = uniform_instance seed in
      List.for_all
        (fun s ->
          let sol = s.Sap.Solvers.solve ~seed ~parallel:false path tasks in
          Result.is_ok (Core.Checker.sap_feasible path sol)
          && Core.Checker.subset_of (Core.Solution.sap_tasks sol) tasks)
        Sap.Solvers.all)

let registry_deterministic =
  Helpers.seed_property ~count:10 "same seed, same solution; parallel too"
    (fun seed ->
      let path, tasks = uniform_instance seed in
      List.for_all
        (fun s ->
          let run parallel = s.Sap.Solvers.solve ~seed ~parallel path tasks in
          let first = run false in
          run false = first && run true = first)
        Sap.Solvers.all)

(* A class entry solves only its own class.  Three δ-small tasks beside
   one medium task: were the small ones handed to the Elevator, its
   candidate heights would reach the subset-sum cap and the band sweep
   would exhaust memory; the entry places task 3 alone in a few dozen
   states. *)
let registry_medium_own_class () =
  let path = Path.create [| 1000; 1000; 1000 |] in
  let t id demand weight =
    Task.make ~id ~first_edge:0 ~last_edge:2 ~demand ~weight
  in
  let tasks = [ t 0 1 1.0; t 1 2 1.0; t 2 3 1.0; t 3 400 5.0 ] in
  let medium = Option.get (Sap.Solvers.find "medium") in
  let states = Obs.Metrics.counter "elevator.dp_states" in
  Obs.Metrics.enable ();
  let before = Obs.Metrics.counter_value states in
  let sol =
    Fun.protect ~finally:Obs.Metrics.disable (fun () ->
        medium.Sap.Solvers.solve ~seed:1 ~parallel:false path tasks)
  in
  let counted = Obs.Metrics.counter_value states - before in
  Alcotest.(check (list int)) "only the medium task" [ 3 ]
    (List.map (fun ((j : Task.t), _) -> j.Task.id) sol);
  Alcotest.(check bool)
    (Printf.sprintf "a bounded DP (%d states)" counted)
    true
    (counted > 0 && counted < 1_000)

let registry_names () =
  let names = Sap.Solvers.names in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun name ->
      match Sap.Solvers.find name with
      | Some s -> Alcotest.(check string) "find by name" name s.Sap.Solvers.name
      | None -> Alcotest.failf "%s not found" name)
    names

let () =
  Alcotest.run "combine"
    [
      ( "feasibility",
        [ combine_feasible; combine_parts_feasible; case "empty" combine_empty ] );
      ( "ratio",
        [ combine_ratio_vs_exact; combine_ratio_vs_lp; combine_beats_every_part_alone ] );
      ( "behaviour",
        [
          combine_report_consistent;
          case "pure large" combine_pure_large;
          case "single task" combine_single_task;
          case "drops unfit" combine_drops_unfit;
          case "deterministic" combine_deterministic;
          combine_parallel_equals_sequential;
        ] );
      ( "registry",
        [
          registry_feasible;
          registry_deterministic;
          case "names unique" registry_names;
          case "medium solves its own class" registry_medium_own_class;
        ] );
    ]
