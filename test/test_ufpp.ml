module Task = Core.Task
module Path = Core.Path

let case = Helpers.case

let mk ?(w = 1.0) id first last d =
  Task.make ~id ~first_edge:first ~last_edge:last ~demand:d ~weight:w

(* ---------- Interval_mwis ---------- *)

let interval_brute ts =
  let a = Array.of_list ts in
  let n = Array.length a in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let ok = ref true and w = ref 0.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        w := !w +. a.(i).Task.weight;
        for j = i + 1 to n - 1 do
          if mask land (1 lsl j) <> 0 && Task.overlaps a.(i) a.(j) then ok := false
        done
      end
    done;
    if !ok && !w > !best then best := !w
  done;
  !best

let interval_mwis_exact =
  Helpers.seed_property ~count:60 "interval MWIS = brute force" (fun seed ->
      let _, tasks = Helpers.tiny_instance ~max_tasks:10 seed in
      let sol = Ufpp.Interval_mwis.solve tasks in
      let disjoint =
        let rec pairwise = function
          | [] -> true
          | x :: rest ->
              List.for_all (fun y -> not (Task.overlaps x y)) rest && pairwise rest
        in
        pairwise sol
      in
      disjoint
      && Helpers.close_enough (Task.weight_of sol) (interval_brute tasks))

let interval_mwis_known () =
  let sol =
    Ufpp.Interval_mwis.solve [ mk ~w:3.0 0 0 2 1; mk ~w:2.0 1 3 4 1; mk ~w:4.0 2 1 3 1 ]
  in
  (* 3 + 2 = 5 beats 4. *)
  Alcotest.(check bool) "weight 5" true (Helpers.close_enough (Task.weight_of sol) 5.0)

(* ---------- Local_ratio_u ---------- *)

let local_ratio_feasible_and_bounded =
  Helpers.seed_property ~count:50 "uniform 3-approx: feasible, ratio <= 3"
    (fun seed ->
      let g = Util.Prng.create seed in
      let edges = 3 + Util.Prng.int g 5 in
      let capacity = 4 + Util.Prng.int g 12 in
      let path = Path.uniform ~edges ~capacity in
      let n = 2 + Util.Prng.int g 8 in
      let tasks = Gen.Workloads.mixed_tasks ~prng:g ~path ~n () in
      let sol = Ufpp.Local_ratio_u.solve path tasks in
      let opt = Ufpp.Exact_bb.value path tasks in
      Result.is_ok (Core.Checker.ufpp_feasible path sol)
      && Core.Checker.subset_of sol tasks
      && (opt <= 1e-9 || Task.weight_of sol >= (opt /. 3.0) -. 1e-9))

let local_ratio_narrow_2_approx =
  Helpers.seed_property ~count:50 "narrow local ratio: ratio <= 2" (fun seed ->
      let g = Util.Prng.create seed in
      let edges = 3 + Util.Prng.int g 5 in
      let capacity = 8 + (2 * Util.Prng.int g 6) in
      let path = Path.uniform ~edges ~capacity in
      let n = 2 + Util.Prng.int g 8 in
      let tasks = Gen.Workloads.ratio_tasks ~prng:g ~path ~n ~lo:0.0 ~hi:0.5 () in
      let sol = Ufpp.Local_ratio_u.solve_narrow path tasks in
      let opt = Ufpp.Exact_bb.value path tasks in
      Result.is_ok (Core.Checker.ufpp_feasible path sol)
      && (opt <= 1e-9 || Task.weight_of sol >= (opt /. 2.0) -. 1e-9))

let local_ratio_rejects_non_uniform () =
  let path = Path.create [| 4; 5 |] in
  Alcotest.check_raises "non uniform"
    (Invalid_argument "Local_ratio_u: capacities not uniform") (fun () ->
      ignore (Ufpp.Local_ratio_u.solve path [ mk 0 0 0 1 ]))

(* ---------- Strip_local_ratio ---------- *)

let strip_band_instance seed =
  let g = Util.Prng.create seed in
  let b = 16 * (1 + Util.Prng.int g 3) in
  let edges = 3 + Util.Prng.int g 5 in
  let caps = Array.init edges (fun _ -> b + Util.Prng.int g b) in
  let path = Path.create caps in
  let n = 3 + Util.Prng.int g 9 in
  let tasks = Gen.Workloads.small_tasks ~prng:g ~path ~n ~delta:0.25 () in
  (b, path, tasks)

let strip_half_packable =
  Helpers.seed_property ~count:50 "Strip returns B/2-packable solutions"
    (fun seed ->
      let b, path, tasks = strip_band_instance seed in
      let sol = Ufpp.Strip_local_ratio.solve ~b path tasks in
      Core.Solution.ufpp_is_packable path ~bound:(b / 2) sol
      && Core.Checker.subset_of sol tasks)

let strip_ratio_bound =
  (* Guarantee: w(S) >= OPT_SAP / 5 (up to the delta slack), where the
     comparison is against the *SAP* optimum of the band.  OPT_SAP is at
     most the UFPP LP bound, so clearing a fifth of the bound settles the
     case without the exponential oracle; only a weight below it reaches
     the exact check, so a real counterexample still fails. *)
  Helpers.seed_property ~count:30 "Strip ratio <= 5 vs SAP optimum" (fun seed ->
      let b, path, tasks = strip_band_instance seed in
      let tasks = List.filteri (fun i _ -> i < 8) tasks in
      let sol = Ufpp.Strip_local_ratio.solve ~b path tasks in
      let w = Task.weight_of sol in
      w >= (Lp.Ufpp_lp.upper_bound path tasks /. 5.0) -. 1e-9
      ||
      let opt = Exact.Sap_brute.value path tasks in
      opt <= 1e-9 || w >= (opt /. 5.0) -. 1e-9)

let strip_rejects_out_of_band () =
  let path = Path.create [| 8; 8 |] in
  Alcotest.check_raises "bottleneck below B"
    (Invalid_argument "Strip_local_ratio.solve: bottleneck outside [B, 2B)")
    (fun () -> ignore (Ufpp.Strip_local_ratio.solve ~b:16 path [ mk 0 0 1 1 ]))

(* ---------- Lp_rounding ---------- *)

let rounding_within_budget =
  Helpers.seed_property ~count:50 "rounding respects the budget" (fun seed ->
      let g = Util.Prng.create seed in
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let lp = Lp.Ufpp_lp.solve path tasks in
      let fx =
        Array.to_list lp.Lp.Ufpp_lp.tasks
        |> List.mapi (fun i j -> (j, 0.25 *. lp.Lp.Ufpp_lp.solution.(i)))
      in
      let budget = 1 + Util.Prng.int g 10 in
      let sol = Ufpp.Lp_rounding.round ~budget ~trials:8 ~prng:g path fx in
      Core.Solution.ufpp_is_packable path ~bound:budget sol)

let rounding_takes_integral_lp () =
  (* When the LP solution is integral and fits the budget, rounding keeps
     everything. *)
  let path = Path.create [| 10; 10 |] in
  let ts = [ mk ~w:5.0 0 0 0 2; mk ~w:5.0 1 1 1 2 ] in
  let g = Util.Prng.create 5 in
  let fx = List.map (fun t -> (t, 1.0)) ts in
  let sol = Ufpp.Lp_rounding.round ~budget:4 ~trials:4 ~prng:g path fx in
  Alcotest.(check int) "both kept" 2 (List.length sol)

let fractional_weight () =
  let fx = [ (mk ~w:4.0 0 0 0 1, 0.5); (mk ~w:2.0 1 0 0 1, 1.0) ] in
  Alcotest.(check bool) "weighted sum" true
    (Helpers.close_enough (Ufpp.Lp_rounding.fractional_weight fx) 4.0)

(* ---------- Exact_bb / Greedy ---------- *)

let ufpp_brute ts path =
  let a = Array.of_list ts in
  let n = Array.length a in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list a) in
    if Result.is_ok (Core.Checker.ufpp_feasible path chosen) then begin
      let w = Task.weight_of chosen in
      if w > !best then best := w
    end
  done;
  !best

let exact_bb_matches_enumeration =
  Helpers.seed_property ~count:40 "B&B = subset enumeration" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:10 seed in
      let sol = Ufpp.Exact_bb.solve path tasks in
      Result.is_ok (Core.Checker.ufpp_feasible path sol)
      && Helpers.close_enough (Task.weight_of sol) (ufpp_brute tasks path))

let greedy_feasible =
  Helpers.seed_property "greedy feasible subset" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:15 seed in
      let sol = Ufpp.Greedy.solve path tasks in
      Result.is_ok (Core.Checker.ufpp_feasible path sol)
      && Core.Checker.subset_of sol tasks)

(* ---------- Band_dp ---------- *)

let band_dp_matches_bb =
  Helpers.seed_property ~count:40 "band DP = branch and bound" (fun seed ->
      let path, tasks = Helpers.tiny_ratio_instance ~max_tasks:10 ~lo:0.25 ~hi:1.0 seed in
      let r = Ufpp.Band_dp.solve path tasks in
      r.Ufpp.Band_dp.exact
      && Result.is_ok (Core.Checker.ufpp_feasible path r.Ufpp.Band_dp.solution)
      && Helpers.close_enough
           (Task.weight_of r.Ufpp.Band_dp.solution)
           (Ufpp.Exact_bb.value path tasks))

let band_dp_mixed_matches_bb =
  Helpers.seed_property ~count:30 "band DP exact on mixed tiny instances"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:9 seed in
      let r = Ufpp.Band_dp.solve path tasks in
      (not r.Ufpp.Band_dp.exact)
      || Helpers.close_enough
           (Task.weight_of r.Ufpp.Band_dp.solution)
           (Ufpp.Exact_bb.value path tasks))

let band_dp_respects_cap =
  Helpers.seed_property ~count:30 "band DP respects the clip cap" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:10 seed in
      let cap = max 2 (Path.max_capacity path / 2) in
      let r = Ufpp.Band_dp.solve ~cap path tasks in
      Core.Solution.ufpp_is_packable (Path.clip path cap) ~bound:cap
        r.Ufpp.Band_dp.solution
      && Result.is_ok
           (Core.Checker.ufpp_feasible (Path.clip path cap) r.Ufpp.Band_dp.solution))

(* ---------- Composite ---------- *)

let composite_feasible =
  Helpers.seed_property ~count:40 "UFPP composite feasible + subset" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:14 seed in
      let sol = Ufpp.Composite.solve path tasks in
      Result.is_ok (Core.Checker.ufpp_feasible path sol)
      && Core.Checker.subset_of sol tasks)

let composite_parts_feasible =
  Helpers.seed_property ~count:25 "UFPP composite parts feasible" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:14 seed in
      let r = Ufpp.Composite.solve_report path tasks in
      Result.is_ok (Core.Checker.ufpp_feasible path r.Ufpp.Composite.small_solution)
      && Result.is_ok (Core.Checker.ufpp_feasible path r.Ufpp.Composite.medium_solution)
      && Result.is_ok (Core.Checker.ufpp_feasible path r.Ufpp.Composite.large_solution))

let composite_reasonable_ratio =
  (* No proved constant for the engineering rendition; sanity-check a loose
     measured envelope against the exact optimum. *)
  Helpers.seed_property ~count:20 "UFPP composite within 8x of exact" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:9 seed in
      let sol = Ufpp.Composite.solve path tasks in
      let opt = Ufpp.Exact_bb.value path tasks in
      opt <= 1e-9 || Task.weight_of sol >= (opt /. 8.0) -. 1e-9)

let round_capacities_within_caps =
  Helpers.seed_property ~count:30 "capacity rounding respects every edge"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let lp = Lp.Ufpp_lp.solve path tasks in
      let fx =
        Array.to_list lp.Lp.Ufpp_lp.tasks
        |> List.mapi (fun i j -> (j, lp.Lp.Ufpp_lp.solution.(i)))
      in
      let sol =
        Ufpp.Lp_rounding.round_capacities ~trials:6 ~prng:(Util.Prng.create seed)
          path fx
      in
      Result.is_ok (Core.Checker.ufpp_feasible path sol))

let band_dp_state_cap_flag () =
  let path = Path.uniform ~edges:4 ~capacity:30 in
  let prng = Util.Prng.create 5 in
  let tasks = Gen.Workloads.mixed_tasks ~prng ~path ~n:12 () in
  let r = Ufpp.Band_dp.solve ~max_states:1 path tasks in
  Alcotest.(check bool) "flag tripped" false r.Ufpp.Band_dp.exact

let () =
  Alcotest.run "ufpp"
    [
      ("interval_mwis", [ interval_mwis_exact; case "known" interval_mwis_known ]);
      ( "local_ratio",
        [
          local_ratio_feasible_and_bounded;
          local_ratio_narrow_2_approx;
          case "non uniform rejected" local_ratio_rejects_non_uniform;
        ] );
      ( "strip",
        [
          strip_half_packable;
          strip_ratio_bound;
          case "out of band rejected" strip_rejects_out_of_band;
        ] );
      ( "lp_rounding",
        [
          rounding_within_budget;
          case "integral kept" rounding_takes_integral_lp;
          case "fractional weight" fractional_weight;
        ] );
      ("exact_bb", [ exact_bb_matches_enumeration; greedy_feasible ]);
      ( "band_dp",
        [
          band_dp_matches_bb;
          band_dp_mixed_matches_bb;
          band_dp_respects_cap;
          case "state cap flag" band_dp_state_cap_flag;
        ] );
      ( "composite",
        [
          composite_feasible;
          composite_parts_feasible;
          composite_reasonable_ratio;
          round_capacities_within_caps;
        ] );
    ]
