(* Experiments T1..T5 (one per approximation theorem), A1 (the appendix's
   local-ratio alternative), L3 (the combination lemma), S2 (LP quality)
   and RHO (the conclusion's extended-DSA problem).  Each prints a table of
   measured approximation ratios next to the paper's proven bound. *)

module Task = Core.Task
module Path = Core.Path

(* ---------- T1: small tasks, Theorem 1 (4 + eps) ---------- *)

let small_tiny seed =
  let g = Util.Prng.create seed in
  let path = Path.uniform ~edges:(3 + Util.Prng.int g 3) ~capacity:16 in
  (path, Gen.Workloads.small_tasks ~prng:g ~path ~n:7 ~delta:0.25 ())

let small_big seed =
  let g = Util.Prng.create seed in
  let path = Gen.Profiles.staircase ~edges:16 ~steps:3 ~base:32 in
  (path, Gen.Workloads.small_tasks ~prng:g ~path ~n:60 ~delta:0.25 ())

let t1 () =
  Bench_util.section "T1  Theorem 1: (4+eps)-approximation for delta-small SAP";
  let algo_lp path ts =
    Sap.Small.strip_pack ~rounding:(`Lp 16) ~prng:(Util.Prng.create 9) path ts
  in
  let algo_lr path ts =
    Sap.Small.strip_pack ~rounding:`Local_ratio ~prng:(Util.Prng.create 9) path ts
  in
  let algo_ff path ts = fst (Dsa.First_fit.pack path ts) in
  Bench_util.subsection "tiny instances vs exact OPT (n = 7, delta = 1/4)";
  let tiny = Bench_util.batch ~count:30 ~base:100 small_tiny in
  Util.Table.print ~header:Bench_util.ratio_header
    [
      Bench_util.ratio_row ~name:"Strip-Pack (LP rounding)" ~bound:"4+eps"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo:algo_lp tiny);
      Bench_util.ratio_row ~name:"Strip-Pack (local ratio)" ~bound:"5+eps"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo:algo_lr tiny);
      Bench_util.ratio_row ~name:"first fit (baseline)" ~bound:"none"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo:algo_ff tiny);
    ];
  Bench_util.subsection "larger instances vs LP bound (n = 60, staircase profile)";
  let big = Bench_util.batch ~count:10 ~base:200 small_big in
  Util.Table.print ~header:Bench_util.ratio_header
    [
      Bench_util.ratio_row ~name:"Strip-Pack (LP rounding)" ~bound:"4+eps (vs OPT)"
        (Bench_util.measure ~ref_kind:Bench_util.Lp_bound ~algo:algo_lp big);
      Bench_util.ratio_row ~name:"Strip-Pack (local ratio)" ~bound:"5+eps (vs OPT)"
        (Bench_util.measure ~ref_kind:Bench_util.Lp_bound ~algo:algo_lr big);
      Bench_util.ratio_row ~name:"first fit (baseline)" ~bound:"none"
        (Bench_util.measure ~ref_kind:Bench_util.Lp_bound ~algo:algo_ff big);
    ]

(* ---------- T2: medium tasks, Theorem 2 (2 + eps) ---------- *)

let medium_tiny seed =
  let g = Util.Prng.create seed in
  let path = Helpers_path.medium_path g in
  (path, Gen.Workloads.ratio_tasks ~prng:g ~path ~n:7 ~lo:0.25 ~hi:0.5 ())

let t2 () =
  Bench_util.section "T2  Theorem 2: (2+eps)-approximation for medium SAP";
  let algo path ts =
    (Sap.Almost_uniform.run ~ell:2 ~q:2 path ts).Sap.Almost_uniform.solution
  in
  let algo_ff path ts = fst (Dsa.First_fit.pack path ts) in
  Bench_util.subsection
    "tiny instances vs exact OPT (ratios in (1/4,1/2]; at ell=2,q=2 the \
     instantiated bound is 2(ell+q)/ell = 4, tending to 2+eps as ell grows)";
  let tiny = Bench_util.batch ~count:30 ~base:300 medium_tiny in
  Util.Table.print ~header:Bench_util.ratio_header
    [
      Bench_util.ratio_row ~name:"AlmostUniform + Elevator" ~bound:"4 (→2+eps)"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo tiny);
      Bench_util.ratio_row ~name:"first fit (baseline)" ~bound:"none"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo:algo_ff tiny);
    ]

(* ---------- T3: large tasks, Theorem 3 (2k - 1) ---------- *)

let large_tiny ~k seed =
  let g = Util.Prng.create seed in
  let path = Helpers_path.medium_path g in
  (path, Gen.Workloads.ratio_tasks ~prng:g ~path ~n:8 ~lo:(1.0 /. float_of_int k) ~hi:1.0 ())

let t3 () =
  Bench_util.section "T3  Theorem 3: (2k-1)-approximation for 1/k-large SAP";
  let algo path ts = Sap.Large.solve path ts in
  List.iter
    (fun k ->
      Bench_util.subsection
        (Printf.sprintf "k = %d: 1/%d-large instances vs exact OPT (bound %d)" k k
           ((2 * k) - 1));
      let tiny = Bench_util.batch ~count:30 ~base:(400 + k) (large_tiny ~k) in
      Util.Table.print ~header:Bench_util.ratio_header
        [
          Bench_util.ratio_row ~name:"rectangle MWIS"
            ~bound:(string_of_int ((2 * k) - 1))
            (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo tiny);
        ];
      (* Lemma 17: degeneracy of the rectangle graph of optimal solutions. *)
      let degs =
        List.map
          (fun (path, ts) ->
            let opt = Exact.Sap_brute.solve path ts in
            float_of_int (Sap.Large.solution_degeneracy path opt))
          tiny
      in
      let s = Util.Stats.summarize degs in
      Printf.printf
        "  Lemma 17 check: rectangle-graph degeneracy of exact optima: max %.0f (bound %d)\n"
        s.Util.Stats.max ((2 * k) - 2))
    [ 2; 3 ]

(* ---------- T4: the combined algorithm, Theorem 4 (9 + eps) ---------- *)

let mixed_tiny seed =
  let g = Util.Prng.create seed in
  let path = Helpers_path.medium_path g in
  (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n:8 ())

let mixed_big seed =
  let g = Util.Prng.create seed in
  let path = Helpers_path.big_path g in
  (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n:60 ())

let t4 () =
  Bench_util.section "T4  Theorem 4: (9+eps)-approximation for general SAP";
  let algo path ts = Sap.Combine.solve path ts in
  let algo_ff path ts = fst (Dsa.First_fit.pack path ts) in
  Bench_util.subsection "tiny mixed instances vs exact OPT";
  let tiny = Bench_util.batch ~count:30 ~base:500 mixed_tiny in
  Util.Table.print ~header:Bench_util.ratio_header
    [
      Bench_util.ratio_row ~name:"combine (Thm 4)" ~bound:"9+eps"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo tiny);
      Bench_util.ratio_row ~name:"first fit (baseline)" ~bound:"none"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo:algo_ff tiny);
    ];
  Bench_util.subsection "larger mixed instances vs LP bound (n = 60)";
  let big = Bench_util.batch ~count:10 ~base:600 mixed_big in
  Util.Table.print ~header:Bench_util.ratio_header
    [
      Bench_util.ratio_row ~name:"combine (Thm 4)" ~bound:"9+eps (vs OPT)"
        (Bench_util.measure ~ref_kind:Bench_util.Lp_bound ~algo big);
      Bench_util.ratio_row ~name:"first fit (baseline)" ~bound:"none"
        (Bench_util.measure ~ref_kind:Bench_util.Lp_bound ~algo:algo_ff big);
    ];
  Bench_util.subsection
    "mid-size mixed instances (n = 18) vs exact UFPP (tighter than the LP)";
  let mid seed =
    let g = Util.Prng.create seed in
    let path = Helpers_path.medium_path g in
    (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n:18 ())
  in
  let mids = Bench_util.batch ~count:15 ~base:650 mid in
  Util.Table.print ~header:Bench_util.ratio_header
    [
      Bench_util.ratio_row ~name:"combine (Thm 4)" ~bound:"9+eps (vs OPT)"
        (Bench_util.measure ~ref_kind:Bench_util.Ufpp_exact ~algo mids);
      Bench_util.ratio_row ~name:"first fit (baseline)" ~bound:"none"
        (Bench_util.measure ~ref_kind:Bench_util.Ufpp_exact ~algo:algo_ff mids);
    ];
  Bench_util.subsection
    "per-profile breakdown (n = 45 vs LP bound): structure is where the paper's \
     machinery pays";
  let profile_instances profile seed =
    let g = Util.Prng.create seed in
    let path =
      match profile with
      | `Uniform -> Gen.Profiles.uniform ~edges:16 ~capacity:48
      | `Valley -> Gen.Profiles.valley ~edges:16 ~high:64 ~low:16
      | `Staircase -> Gen.Profiles.staircase ~edges:16 ~steps:4 ~base:8
    in
    (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n:45 ())
  in
  let profile_row name profile =
    let batch = Bench_util.batch ~count:8 ~base:660 (profile_instances profile) in
    let row algo_name algo =
      Bench_util.ratio_row ~name:(name ^ ": " ^ algo_name) ~bound:"-"
        (Bench_util.measure ~ref_kind:Bench_util.Lp_bound ~algo batch)
    in
    [ row "combine" algo; row "first fit" algo_ff ]
  in
  Util.Table.print ~header:Bench_util.ratio_header
    (List.concat
       [
         profile_row "uniform" `Uniform;
         profile_row "valley" `Valley;
         profile_row "staircase" `Staircase;
       ]);
  Bench_util.subsection "uniform instances: combine vs the SAP-U baseline of [5]";
  let uniform seed =
    let g = Util.Prng.create seed in
    let path = Path.uniform ~edges:(4 + Util.Prng.int g 3) ~capacity:18 in
    (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n:8 ())
  in
  let unif = Bench_util.batch ~count:30 ~base:700 uniform in
  Util.Table.print ~header:Bench_util.ratio_header
    [
      Bench_util.ratio_row ~name:"combine (Thm 4)" ~bound:"9+eps"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt ~algo unif);
      Bench_util.ratio_row ~name:"SAP-U scheme of [5]" ~bound:"7"
        (Bench_util.measure ~ref_kind:Bench_util.Exact_opt
           ~algo:(fun p ts -> Sap.Sap_u.solve p ts)
           unif);
    ]

(* ---------- T5: rings, Theorem 5 (10 + eps) ---------- *)

let t5 () =
  Bench_util.section "T5  Theorem 5: (10+eps)-approximation on rings";
  let ring_tiny seed =
    let prng = Util.Prng.create seed in
    Gen.Ring_gen.random ~prng ~edges:(4 + (seed mod 3)) ~n:5 ~cap_lo:6 ~cap_hi:14
      ~ratio_lo:0.0 ~ratio_hi:0.9
  in
  let measurements =
    Bench_util.seeds ~base:800 ~count:25
    |> List.filter_map (fun seed ->
           let ring = ring_tiny seed in
           let opt = Exact.Ring_brute.value ring in
           if opt <= 1e-9 then None
           else begin
             let sol = Sap.Ring_algo.solve ring in
             (match Core.Ring.feasible ring sol with
             | Ok () -> ()
             | Error m -> failwith ("T5: " ^ m));
             let w = Core.Ring.solution_weight sol in
             Some ((if w <= 1e-9 then Float.infinity else opt /. w), w, opt)
           end)
  in
  Bench_util.subsection "tiny rings vs exact ring OPT";
  Util.Table.print ~header:Bench_util.ratio_header
    [ Bench_util.ratio_row ~name:"cut + knapsack (Thm 5)" ~bound:"10+eps" measurements ];
  (* How often does each candidate win? *)
  let path_wins, through_wins =
    Bench_util.seeds ~base:900 ~count:25
    |> List.fold_left
         (fun (p, t) seed ->
           let r = Sap.Ring_algo.solve_report (ring_tiny seed) in
           if r.Sap.Ring_algo.path_weight >= r.Sap.Ring_algo.through_weight then
             (p + 1, t)
           else (p, t + 1))
         (0, 0)
  in
  Printf.printf "  candidate wins: cut-path %d, through-knapsack %d\n" path_wins
    through_wins

(* ---------- A1: LP rounding vs local ratio inside a strip ---------- *)

let a1 () =
  Bench_util.section "A1  Appendix: LP rounding vs local ratio for strips";
  let band seed =
    let g = Util.Prng.create seed in
    let b = 32 in
    let edges = 6 + Util.Prng.int g 6 in
    let caps = Array.init edges (fun _ -> b + Util.Prng.int g b) in
    let path = Path.create caps in
    (b, path, Gen.Workloads.small_tasks ~prng:g ~path ~n:40 ~delta:0.2 ())
  in
  let rows =
    Bench_util.seeds ~base:1000 ~count:8
    |> List.map (fun seed ->
           let b, path, tasks = band seed in
           let lp_strip, _ =
             Sap.Small.solve_band ~b ~rounding:(`Lp 16) ~prng:(Util.Prng.create 3)
               path tasks
           in
           let lr_strip, _ =
             Sap.Small.solve_band ~b ~rounding:`Local_ratio
               ~prng:(Util.Prng.create 3) path tasks
           in
           let lp_bound = Lp.Ufpp_lp.upper_bound (Path.clip path (2 * b)) tasks in
           [
             string_of_int seed;
             string_of_int (List.length tasks);
             Util.Table.float_cell ~digits:1 (Core.Solution.sap_weight lp_strip);
             Util.Table.float_cell ~digits:1 (Core.Solution.sap_weight lr_strip);
             Util.Table.float_cell ~digits:1 lp_bound;
             Util.Table.float_cell
               (lp_bound /. Float.max 1e-9 (Core.Solution.sap_weight lp_strip));
             Util.Table.float_cell
               (lp_bound /. Float.max 1e-9 (Core.Solution.sap_weight lr_strip));
           ])
  in
  Util.Table.print
    ~header:
      [ "seed"; "tasks"; "LP-round w"; "local-ratio w"; "LP bound"; "LP ratio"; "LR ratio" ]
    rows;
  print_endline "  (paper bounds: 4+eps for LP rounding, 5+eps for local ratio)"

(* ---------- L3: the combination lemma in action ---------- *)

let l3 () =
  Bench_util.section "L3  Lemma 3: best-of-parts combination";
  let rows =
    Bench_util.seeds ~base:1100 ~count:8
    |> List.map (fun seed ->
           let path, tasks = mixed_big seed in
           let r = Sap.Combine.solve_report path tasks in
           let w = Core.Solution.sap_weight in
           [
             string_of_int seed;
             Util.Table.float_cell ~digits:1 (w r.Sap.Combine.small_solution);
             Util.Table.float_cell ~digits:1 (w r.Sap.Combine.medium_solution);
             Util.Table.float_cell ~digits:1 (w r.Sap.Combine.large_solution);
             Format.asprintf "%a" Sap.Combine.pp_part r.Sap.Combine.chosen;
             Util.Table.float_cell ~digits:1 (w r.Sap.Combine.solution);
           ])
  in
  Util.Table.print
    ~header:[ "seed"; "small w"; "medium w"; "large w"; "winner"; "returned w" ]
    rows

(* ---------- S2: LP quality ---------- *)

let s2 () =
  Bench_util.section "S2  LP relaxation quality (integrality gap on small instances)";
  let gaps =
    Bench_util.seeds ~base:1200 ~count:25
    |> List.filter_map (fun seed ->
           let g = Util.Prng.create seed in
           let path = Helpers_path.medium_path g in
           let tasks = Gen.Workloads.mixed_tasks ~prng:g ~path ~n:10 () in
           let lp = Lp.Ufpp_lp.upper_bound path tasks in
           let ufpp = Ufpp.Exact_bb.value path tasks in
           let sap = Exact.Sap_brute.value path tasks in
           if sap <= 1e-9 then None else Some (lp /. ufpp, ufpp /. sap))
  in
  let lp_over_ufpp = List.map fst gaps and ufpp_over_sap = List.map snd gaps in
  let s1 = Util.Stats.summarize lp_over_ufpp in
  let s2_ = Util.Stats.summarize ufpp_over_sap in
  Util.Table.print
    ~header:[ "gap"; "geo-mean"; "median"; "worst" ]
    [
      [
        "LP / exact UFPP";
        Util.Table.float_cell (Util.Stats.geometric_mean lp_over_ufpp);
        Util.Table.float_cell s1.Util.Stats.median;
        Util.Table.float_cell s1.Util.Stats.max;
      ];
      [
        "exact UFPP / exact SAP";
        Util.Table.float_cell (Util.Stats.geometric_mean ufpp_over_sap);
        Util.Table.float_cell s2_.Util.Stats.median;
        Util.Table.float_cell s2_.Util.Stats.max;
      ];
    ]

(* ---------- RHO: the conclusion's extended DSA ---------- *)

let rho () =
  Bench_util.section
    "RHO  Conclusion: min coefficient rho packing all tasks in rho*c (extension)";
  let rows =
    Bench_util.seeds ~base:1300 ~count:8
    |> List.map (fun seed ->
           let g = Util.Prng.create seed in
           let path = Gen.Profiles.valley ~edges:10 ~high:64 ~low:24 in
           let tasks = Gen.Workloads.small_tasks ~prng:g ~path ~n:40 ~delta:0.2 () in
           let ff = Dsa.Rho_packing.solve ~engine:Dsa.Rho_packing.First_fit path tasks in
           let bd = Dsa.Rho_packing.solve ~engine:Dsa.Rho_packing.Buddy path tasks in
           [
             string_of_int seed;
             Util.Table.float_cell ff.Dsa.Rho_packing.lower_bound;
             Util.Table.float_cell ff.Dsa.Rho_packing.rho;
             Util.Table.float_cell bd.Dsa.Rho_packing.rho;
             Util.Table.float_cell
               (ff.Dsa.Rho_packing.rho /. Float.max 1e-9 ff.Dsa.Rho_packing.lower_bound);
           ])
  in
  Util.Table.print
    ~header:[ "seed"; "load bound"; "rho (first fit)"; "rho (buddy)"; "ff gap" ]
    rows

let run_all () =
  t1 ();
  t2 ();
  t3 ();
  t4 ();
  t5 ();
  a1 ();
  l3 ();
  s2 ();
  rho ()
