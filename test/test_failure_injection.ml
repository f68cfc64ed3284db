(* Failure injection: corrupt known-good artifacts and assert the checking
   machinery rejects them.  A checker that cannot reject is worthless as a
   verification layer, so each corruption class gets its own property. *)

module Task = Core.Task
module Path = Core.Path


(* A solved instance dense enough that corruptions actually collide. *)
let solved_instance seed =
  let g = Util.Prng.create seed in
  let path = Path.uniform ~edges:(3 + Util.Prng.int g 4) ~capacity:(6 + Util.Prng.int g 8) in
  let tasks = Gen.Workloads.mixed_tasks ~prng:g ~path ~n:(4 + Util.Prng.int g 5) () in
  let sol = Exact.Sap_brute.solve path tasks in
  (path, tasks, sol)

(* ---------- SAP checker vs corrupted solutions ---------- *)

let inject_below_ground =
  Helpers.seed_property ~count:40 "negative height rejected" (fun seed ->
      let path, _, sol = solved_instance seed in
      match sol with
      | [] -> true
      | (j, _) :: rest ->
          Result.is_error (Core.Checker.sap_feasible path ((j, -1) :: rest)))

let inject_above_capacity =
  Helpers.seed_property ~count:40 "height above capacity rejected" (fun seed ->
      let path, _, sol = solved_instance seed in
      match sol with
      | [] -> true
      | ((j : Task.t), _) :: rest ->
          let too_high = Path.bottleneck_of path j - j.Task.demand + 1 in
          Result.is_error (Core.Checker.sap_feasible path ((j, too_high) :: rest)))

let inject_duplicate_task =
  Helpers.seed_property ~count:40 "duplicated placement rejected" (fun seed ->
      let path, _, sol = solved_instance seed in
      match sol with
      | [] -> true
      | (j, h) :: _ -> Result.is_error (Core.Checker.sap_feasible path ((j, h) :: sol)))

let inject_vertical_collision =
  Helpers.seed_property ~count:40 "forced collision rejected" (fun seed ->
      let path, _, sol = solved_instance seed in
      match sol with
      | (j1, _) :: (j2, h2) :: rest when Task.overlaps j1 j2 ->
          (* Drop j1 exactly onto j2. *)
          Result.is_error (Core.Checker.sap_feasible path ((j1, h2) :: (j2, h2) :: rest))
      | _ -> true)

let inject_foreign_task =
  Helpers.seed_property ~count:40 "foreign task caught by subset_of" (fun seed ->
      let _, tasks, sol = solved_instance seed in
      let foreign = Task.make ~id:9999 ~first_edge:0 ~last_edge:0 ~demand:1 ~weight:1.0 in
      not (Core.Checker.subset_of (foreign :: Core.Solution.sap_tasks sol) tasks))

let inject_mutated_weight =
  Helpers.seed_property ~count:40 "weight-tampered task caught by subset_of"
    (fun seed ->
      let _, tasks, _ = solved_instance seed in
      match tasks with
      | [] -> true
      | j :: _ ->
          not (Core.Checker.subset_of [ Task.with_weight j (j.Task.weight +. 1.0) ] tasks))

(* ---------- UFPP checker ---------- *)

let inject_overload =
  Helpers.seed_property ~count:40 "edge overload rejected" (fun seed ->
      let path, tasks, _ = solved_instance seed in
      (* Replicate the full task list until some edge must overflow. *)
      let doubled =
        tasks @ List.map (fun (j : Task.t) -> Task.with_id j (1000 + j.Task.id)) tasks
      in
      let tripled =
        doubled @ List.map (fun (j : Task.t) -> Task.with_id j (2000 + j.Task.id)) tasks
      in
      let overloaded =
        List.exists
          (fun l -> l > Path.min_capacity path)
          (Array.to_list (Core.Instance.load_profile path tripled))
      in
      (not overloaded) || Result.is_error (Core.Checker.ufpp_feasible path tripled))

(* ---------- Ring checker ---------- *)

let ring_inject_collision =
  Helpers.seed_property ~count:30 "ring collision rejected" (fun seed ->
      let prng = Util.Prng.create seed in
      let ring =
        Gen.Ring_gen.random ~prng ~edges:5 ~n:4 ~cap_lo:6 ~cap_hi:10 ~ratio_lo:0.3
          ~ratio_hi:0.9
      in
      let sol = Exact.Ring_brute.solve ring in
      match sol with
      | (t1, _, d1) :: (t2, h2, d2) :: rest ->
          let shares_edge =
            let m = Core.Ring.num_edges ring in
            let e1 = Core.Ring.edges_of_route ~m ~src:t1.Core.Ring.src ~dst:t1.Core.Ring.dst d1 in
            let e2 = Core.Ring.edges_of_route ~m ~src:t2.Core.Ring.src ~dst:t2.Core.Ring.dst d2 in
            List.exists (fun e -> List.mem e e2) e1
          in
          (not shares_edge)
          || Result.is_error
               (Core.Ring.feasible ring ((t1, h2, d1) :: (t2, h2, d2) :: rest))
      | _ -> true)

(* ---------- Serialisation fuzz ---------- *)

let io_truncation_never_panics =
  Helpers.seed_property ~count:60 "truncated files never raise" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let s = Sap_io.Instance_io.instance_to_string path tasks in
      let g = Util.Prng.create seed in
      let cut = Util.Prng.int g (String.length s) in
      let truncated = String.sub s 0 cut in
      match Sap_io.Instance_io.instance_of_string truncated with
      | Ok _ | Error _ -> true)

let io_byte_flip_never_panics =
  Helpers.seed_property ~count:60 "byte-flipped files never raise" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let s = Bytes.of_string (Sap_io.Instance_io.instance_to_string path tasks) in
      let g = Util.Prng.create seed in
      let pos = Util.Prng.int g (Bytes.length s) in
      Bytes.set s pos (Char.chr (Util.Prng.int g 256));
      match Sap_io.Instance_io.instance_of_string (Bytes.to_string s) with
      | Ok _ | Error _ -> true)

(* ---------- Cross-algorithm invariants ---------- *)

let all_algorithms_below_exact =
  Helpers.seed_property ~count:25 "no algorithm beats the exact oracle"
    (fun seed ->
      let path, tasks, _ = solved_instance seed in
      let opt = Exact.Sap_brute.value path tasks in
      let le sol = Core.Solution.sap_weight sol <= opt +. 1e-9 in
      le (Sap.Combine.solve path tasks)
      && le (Sap.Large.solve path tasks)
      && le (fst (Dsa.First_fit.pack path tasks))
      && le (fst (Dsa.Buddy.pack path tasks))
      && le (Sap.Small.strip_pack ~rounding:`Local_ratio ~prng:(Util.Prng.create 1)
               path
               (List.filter (Core.Classify.is_small path ~delta:0.25) tasks)))

let elevator_direct_at_least_partition =
  Helpers.seed_property ~count:25 "direct elevated DP >= partition half"
    (fun seed ->
      let g = Util.Prng.create seed in
      let k = 3 and ell = 1 and q = 2 in
      let cap = 1 lsl (k + ell) in
      let caps = Array.init 5 (fun _ -> (1 lsl k) + Util.Prng.int g (cap - (1 lsl k))) in
      let path = Path.create caps in
      let tasks = Gen.Workloads.ratio_tasks ~prng:g ~path ~n:6 ~lo:0.25 ~hi:0.5 () in
      let part = Sap.Elevator.solve_partition ~k ~ell ~q path tasks in
      let direct = Sap.Elevator.solve ~k ~ell ~q path tasks in
      Result.is_ok (Core.Checker.sap_feasible path direct.Sap.Elevator.solution)
      && List.for_all (fun (_, h) -> h >= 1 lsl (k - q)) direct.Sap.Elevator.solution
      && Core.Solution.sap_weight direct.Sap.Elevator.solution
         >= Core.Solution.sap_weight part.Sap.Elevator.solution -. 1e-9)

let () =
  Alcotest.run "failure_injection"
    [
      ( "sap_checker",
        [
          inject_below_ground;
          inject_above_capacity;
          inject_duplicate_task;
          inject_vertical_collision;
          inject_foreign_task;
          inject_mutated_weight;
        ] );
      ("ufpp_checker", [ inject_overload ]);
      ("ring_checker", [ ring_inject_collision ]);
      ("io_fuzz", [ io_truncation_never_panics; io_byte_flip_never_panics ]);
      ( "cross_invariants",
        [ all_algorithms_below_exact; elevator_direct_at_least_partition ] );
    ]
