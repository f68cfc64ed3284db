module Task = Core.Task
module Path = Core.Path

let case = Helpers.case

(* Medium tasks in the Theorem 4 configuration: ratios in (1/4, 1/2]. *)
let medium_instance ?(max_tasks = 8) seed =
  Helpers.tiny_ratio_instance ~max_tasks ~lo:0.25 ~hi:0.5 seed

(* ---------- Elevator DP ---------- *)

let elevator_optimal_vs_brute =
  Helpers.seed_property ~count:30 "optimal_band = brute force" (fun seed ->
      let path, tasks = medium_instance ~max_tasks:7 seed in
      let cap = Path.max_capacity path in
      let r = Sap.Elevator.optimal_band ~cap path tasks in
      let brute = Exact.Sap_brute.value path tasks in
      r.Sap.Elevator.exact
      && Result.is_ok (Core.Checker.sap_feasible path r.Sap.Elevator.solution)
      && Helpers.close_enough (Core.Solution.sap_weight r.Sap.Elevator.solution) brute)

let elevator_respects_cap =
  Helpers.seed_property ~count:30 "optimal_band respects the clip cap" (fun seed ->
      let path, tasks = medium_instance seed in
      let cap = max 2 (Path.max_capacity path / 2) in
      let r = Sap.Elevator.optimal_band ~cap path tasks in
      Core.Solution.max_makespan path r.Sap.Elevator.solution <= cap)

let elevator_empty () =
  let path = Path.uniform ~edges:3 ~capacity:8 in
  let r = Sap.Elevator.optimal_band ~cap:8 path [] in
  Alcotest.(check int) "empty" 0 (List.length r.Sap.Elevator.solution);
  Alcotest.(check bool) "exact" true r.Sap.Elevator.exact

let elevator_state_cap_flag () =
  (* A generous instance with max_states=1 must trip the exactness flag
     (or finish trivially). *)
  let path = Path.uniform ~edges:4 ~capacity:12 in
  let prng = Util.Prng.create 4 in
  let tasks = Gen.Workloads.ratio_tasks ~prng ~path ~n:8 ~lo:0.25 ~hi:0.5 () in
  let r = Sap.Elevator.optimal_band ~cap:12 ~max_states:1 path tasks in
  Alcotest.(check bool) "flag tripped" false r.Sap.Elevator.exact;
  Helpers.assert_feasible_sap path r.Sap.Elevator.solution

(* ---------- the DP as an exact solver ---------- *)

(* With the clip cap at the path's maximum capacity the Lemma 13 DP is an
   exact SAP solver on any instance; [None] when the state cap truncated
   the search. *)
let exact_dp ?max_states path ts =
  let r = Sap.Elevator.optimal_band ~cap:(Path.max_capacity path) ?max_states path ts in
  if r.Sap.Elevator.exact then Some r.Sap.Elevator.solution else None

let exact_dp_matches_brute =
  Helpers.seed_property ~count:30 "Exact_dp = brute force when exact" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:8 seed in
      match exact_dp path tasks with
      | None -> true (* cap hit: no claim *)
      | Some sol ->
          Result.is_ok (Core.Checker.sap_feasible path sol)
          && Helpers.close_enough (Core.Solution.sap_weight sol)
               (Exact.Sap_brute.value path tasks))

let exact_dp_truncation_returns_none () =
  let path = Path.uniform ~edges:4 ~capacity:12 in
  let prng = Util.Prng.create 4 in
  let tasks = Gen.Workloads.mixed_tasks ~prng ~path ~n:8 () in
  Alcotest.(check bool) "None under a 1-state cap" true
    (exact_dp ~max_states:1 path tasks = None)

let exact_dp_empty () =
  let path = Path.uniform ~edges:2 ~capacity:4 in
  Alcotest.(check bool) "empty exact" true (exact_dp path [] = Some [])

(* ---------- partition (Lemma 14) ---------- *)

let partition_elevated_properties =
  Helpers.seed_property ~count:30 "partition halves are elevated and disjoint"
    (fun seed ->
      let path, tasks = medium_instance seed in
      let cap = Path.max_capacity path in
      let r = Sap.Elevator.optimal_band ~cap path tasks in
      let sol = r.Sap.Elevator.solution in
      let elevation = 2 in
      let s1, s2 = Sap.Elevator.partition_elevated ~elevation sol in
      List.length s1 + List.length s2 = List.length sol
      && List.for_all (fun (_, h) -> h >= elevation) s1
      && List.for_all (fun (_, h) -> h >= elevation) s2
      && Helpers.close_enough
           (Core.Solution.sap_weight s1 +. Core.Solution.sap_weight s2)
           (Core.Solution.sap_weight sol))

let elevator_solve_half_weight =
  (* Lemma 15: the returned half carries at least half the band optimum. *)
  Helpers.seed_property ~count:25 "solve returns >= optimum/2" (fun seed ->
      let g = Util.Prng.create seed in
      let k = 3 and ell = 1 and q = 2 in
      let cap = 1 lsl (k + ell) in
      let edges = 3 + Util.Prng.int g 3 in
      let caps = Array.init edges (fun _ -> (1 lsl k) + Util.Prng.int g (cap - (1 lsl k))) in
      let path = Path.create caps in
      let tasks = Gen.Workloads.ratio_tasks ~prng:g ~path ~n:6 ~lo:0.25 ~hi:0.5 () in
      let r = Sap.Elevator.solve ~k ~ell ~q path tasks in
      let opt = Exact.Sap_brute.value path tasks in
      Result.is_ok (Core.Checker.sap_feasible path r.Sap.Elevator.solution)
      && (opt <= 1e-9
          || Core.Solution.sap_weight r.Sap.Elevator.solution >= (opt /. 2.0) -. 1e-9))

let elevator_solve_is_elevated =
  Helpers.seed_property ~count:25 "solve output is 2^(k-q)-elevated" (fun seed ->
      let g = Util.Prng.create seed in
      let k = 4 and ell = 1 and q = 2 in
      let cap = 1 lsl (k + ell) in
      let edges = 3 + Util.Prng.int g 3 in
      let caps = Array.init edges (fun _ -> (1 lsl k) + Util.Prng.int g (cap - (1 lsl k))) in
      let path = Path.create caps in
      let tasks = Gen.Workloads.ratio_tasks ~prng:g ~path ~n:6 ~lo:0.25 ~hi:0.5 () in
      let r = Sap.Elevator.solve ~k ~ell ~q path tasks in
      List.for_all (fun (_, h) -> h >= 1 lsl (k - q)) r.Sap.Elevator.solution)

(* ---------- AlmostUniform ---------- *)

let almost_uniform_feasible =
  Helpers.seed_property ~count:30 "AlmostUniform output feasible" (fun seed ->
      let path, tasks = medium_instance ~max_tasks:10 seed in
      let r = Sap.Almost_uniform.run ~ell:2 ~q:2 path tasks in
      Result.is_ok (Core.Checker.sap_feasible path r.Sap.Almost_uniform.solution)
      && Core.Checker.subset_of
           (Core.Solution.sap_tasks r.Sap.Almost_uniform.solution)
           tasks)

let almost_uniform_ratio =
  (* The instantiated guarantee at (ell, q) is alpha * (ell+q) / ell with
     alpha = 2 (Lemma 9): ell = 2, q = 2 gives 4; asymptotically 2+eps as
     ell grows.  Assert the instantiated constant. *)
  Helpers.seed_property ~count:20 "ratio <= 2(ell+q)/ell vs exact" (fun seed ->
      let path, tasks = medium_instance ~max_tasks:7 seed in
      let r = Sap.Almost_uniform.run ~ell:2 ~q:2 path tasks in
      let opt = Exact.Sap_brute.value path tasks in
      opt <= 1e-9
      || Core.Solution.sap_weight r.Sap.Almost_uniform.solution
         >= (opt /. 4.0) -. 1e-9)

let almost_uniform_band_solutions_elevated =
  Helpers.seed_property ~count:20 "per-band solutions are elevated" (fun seed ->
      let path, tasks = medium_instance seed in
      let q = 2 in
      let r = Sap.Almost_uniform.run ~ell:2 ~q path tasks in
      List.for_all
        (fun (b : Sap.Almost_uniform.band_outcome) ->
          let elevation = if b.Sap.Almost_uniform.k >= q then 1 lsl (b.Sap.Almost_uniform.k - q) else 1 in
          List.for_all (fun (_, h) -> h >= elevation) b.Sap.Almost_uniform.band_solution
          || b.Sap.Almost_uniform.band_solution = [])
        r.Sap.Almost_uniform.bands)

let ell_for_eps_values () =
  Alcotest.(check int) "eps=0.5, q=2 -> ell=4" 4
    (Sap.Almost_uniform.ell_for_eps ~eps:0.5 ~q:2);
  Alcotest.(check int) "eps=1, q=2 -> ell=2" 2
    (Sap.Almost_uniform.ell_for_eps ~eps:1.0 ~q:2);
  Alcotest.check_raises "eps=0 rejected"
    (Invalid_argument "Almost_uniform.ell_for_eps") (fun () ->
      ignore (Sap.Almost_uniform.ell_for_eps ~eps:0.0 ~q:2))

let almost_uniform_direct_dominates =
  (* Per band the direct elevated DP is at least the partition half, so the
     best residue union can only improve.  The reference runs the framework
     with [Elevator.solve_partition] on the same bands. *)
  Helpers.seed_property ~count:15 "framework: Direct >= Partition" (fun seed ->
      let path, tasks = medium_instance ~max_tasks:8 seed in
      let ell = 2 and q = 2 in
      let period = ell + q in
      let direct = Sap.Almost_uniform.run ~ell ~q path tasks in
      let halves =
        List.map
          (fun (b : Sap.Almost_uniform.band_outcome) ->
            let k = b.Sap.Almost_uniform.k in
            (k, (Sap.Elevator.solve_partition ~k ~ell ~q path b.Sap.Almost_uniform.band_tasks)
                  .Sap.Elevator.solution))
          direct.Sap.Almost_uniform.bands
      in
      let candidate r =
        List.fold_left
          (fun acc (k, sol) ->
            if ((k mod period) + period) mod period = r then Core.Solution.union acc sol
            else acc)
          [] halves
      in
      let partition =
        List.init period candidate
        |> List.filter (fun sol -> Result.is_ok (Core.Checker.sap_feasible path sol))
        |> List.fold_left (fun acc sol -> Float.max acc (Core.Solution.sap_weight sol)) 0.0
      in
      Result.is_ok
        (Core.Checker.sap_feasible path direct.Sap.Almost_uniform.solution)
      && Core.Solution.sap_weight direct.Sap.Almost_uniform.solution >= partition -. 1e-9)

let almost_uniform_rejects_bad_args () =
  let path = Path.uniform ~edges:2 ~capacity:4 in
  Alcotest.check_raises "ell=0" (Invalid_argument "Almost_uniform.run: ell, q >= 1")
    (fun () -> ignore (Sap.Almost_uniform.run ~ell:0 ~q:2 path []))

let () =
  Alcotest.run "sap_medium"
    [
      ( "elevator_dp",
        [
          elevator_optimal_vs_brute;
          elevator_respects_cap;
          case "empty" elevator_empty;
          case "state cap flag" elevator_state_cap_flag;
        ] );
      ( "exact_dp",
        [
          exact_dp_matches_brute;
          case "truncation returns None" exact_dp_truncation_returns_none;
          case "empty" exact_dp_empty;
        ] );
      ( "partition",
        [
          partition_elevated_properties;
          elevator_solve_half_weight;
          elevator_solve_is_elevated;
        ] );
      ( "almost_uniform",
        [
          almost_uniform_feasible;
          almost_uniform_ratio;
          almost_uniform_band_solutions_elevated;
          almost_uniform_direct_dominates;
          case "ell_for_eps" ell_for_eps_values;
          case "bad args" almost_uniform_rejects_bad_args;
        ] );
    ]
