(* The ratio lab: branch-and-bound vs the brute oracles, corpus
   round-trips, and the ratio pipeline's bound gate. *)

module Task = Core.Task
module Path = Core.Path
module Ring = Core.Ring

let case = Helpers.case

(* ---------- Exact_bb vs Sap_brute ---------- *)

let bb_matches_brute =
  Helpers.seed_property ~count:80 "Exact_bb value = Sap_brute value" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:10 seed in
      let out = Exact.Exact_bb.solve path tasks in
      if not out.Exact.Exact_bb.optimal then
        QCheck.Test.fail_report "tiny instance exhausted the node budget";
      Helpers.assert_feasible_sap path out.Exact.Exact_bb.solution;
      Helpers.close_enough out.Exact.Exact_bb.value (Exact.Sap_brute.value path tasks))

let bb_matches_brute_pooled =
  Helpers.seed_property ~count:20 "pooled Exact_bb value = Sap_brute value"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:10 seed in
      let out = Exact.Exact_bb.solve ~jobs:3 path tasks in
      Helpers.assert_feasible_sap path out.Exact.Exact_bb.solution;
      Helpers.close_enough out.Exact.Exact_bb.value
        (Exact.Sap_brute.value path tasks))

let bb_ring_matches_brute =
  Helpers.seed_property ~count:40 "Exact_bb.solve_ring value = Ring_brute value"
    (fun seed ->
      let prng = Util.Prng.create seed in
      let r =
        Gen.Ring_gen.random ~prng
          ~edges:(4 + (seed mod 3))
          ~n:(2 + (seed mod 4))
          ~cap_lo:4 ~cap_hi:12 ~ratio_lo:0.0 ~ratio_hi:0.9
      in
      let out = Exact.Exact_bb.solve_ring r in
      Helpers.check_ok "bb ring solution feasible"
        (Ring.feasible r out.Exact.Exact_bb.solution);
      Helpers.close_enough out.Exact.Exact_bb.value
        (Exact.Ring_brute.value r))

let bb_budget_reports_nonoptimal () =
  let path, tasks = Helpers.tiny_instance ~max_tasks:10 3 in
  let out = Exact.Exact_bb.solve ~max_nodes:2 path tasks in
  Alcotest.(check bool) "budget exhausted" false out.Exact.Exact_bb.optimal;
  Alcotest.(check bool) "upper bound above incumbent" true
    (out.Exact.Exact_bb.upper_bound >= out.Exact.Exact_bb.value -. 1e-9);
  Helpers.assert_feasible_sap path out.Exact.Exact_bb.solution

(* A tiny palette of footprints and weights, so exact-duplicate and
   near-duplicate tasks abound — the regime where the symmetry cut and
   the dominated-state memo interact.  Promoted from an offline sweep of
   seeds 0..20000 (0 mismatches); the committed test keeps the first 2000
   seeds of the same generator. *)
let bb_brute_palette_sweep () =
  for seed = 0 to 1999 do
    let prng = Util.Prng.create seed in
    let edges = 2 + Util.Prng.int prng 2 in
    let cap = 3 + Util.Prng.int prng 3 in
    let path = Gen.Profiles.uniform ~edges ~capacity:cap in
    let n = 4 + Util.Prng.int prng 5 in
    let tasks =
      List.init n (fun id ->
          let first_edge = Util.Prng.int prng edges in
          let last_edge = first_edge + Util.Prng.int prng (edges - first_edge) in
          let demand = 1 + Util.Prng.int prng 2 in
          let weight = [| 2.0; 3.0; 5.0 |].(Util.Prng.int prng 3) in
          Task.make ~id ~first_edge ~last_edge ~demand ~weight)
    in
    let bb = Exact.Exact_bb.solve path tasks in
    if not bb.Exact.Exact_bb.optimal then
      Alcotest.failf "seed %d: palette instance exhausted the node budget" seed;
    let brute = Exact.Sap_brute.value path tasks in
    if Float.abs (bb.Exact.Exact_bb.value -. brute) > 1e-6 then
      Alcotest.failf "seed %d: bb %.6f <> brute %.6f" seed
        bb.Exact.Exact_bb.value brute
  done

(* ---------- oracle guards ---------- *)

let over_cap_tasks path n =
  List.init n (fun i ->
      Task.make ~id:i ~first_edge:0
        ~last_edge:(Path.num_edges path - 1)
        ~demand:1 ~weight:1.0)

let brute_guard_trips () =
  let path = Path.uniform ~edges:3 ~capacity:50 in
  let tasks = over_cap_tasks path (Exact.Sap_brute.task_cap + 1) in
  Alcotest.check_raises "solve guard"
    (Invalid_argument
       (Printf.sprintf
          "Exact.Sap_brute.solve: %d tasks exceed the exhaustive-search cap \
           of %d (use Exact.Exact_bb for larger instances)"
          (Exact.Sap_brute.task_cap + 1)
          Exact.Sap_brute.task_cap))
    (fun () -> ignore (Exact.Sap_brute.solve path tasks))

let ring_guard_trips () =
  let m = 4 in
  let n = Exact.Ring_brute.task_cap + 1 in
  let tasks =
    List.init n (fun id ->
        Ring.make_task ~id ~src:0 ~dst:2 ~demand:1 ~weight:1.0 ~t_edges:m)
  in
  let r = Ring.create (Array.make m 50) tasks in
  Alcotest.check_raises "ring solve guard"
    (Invalid_argument
       (Printf.sprintf
          "Exact.Ring_brute.solve: %d tasks exceed the exhaustive-search cap \
           of %d (use Exact.Exact_bb.solve_ring for larger instances)"
          n Exact.Ring_brute.task_cap))
    (fun () -> ignore (Exact.Ring_brute.solve r))

(* The symmetry cut must not change oracle answers: instances made of
   identical-task stacks still solve to the obvious optimum. *)
let brute_symmetry_still_optimal () =
  let path = Path.uniform ~edges:4 ~capacity:6 in
  let tasks =
    List.init 8 (fun id ->
        Task.make ~id ~first_edge:0 ~last_edge:3 ~demand:2 ~weight:5.0)
  in
  (* Capacity 6, demand 2 each: exactly 3 fit. *)
  Alcotest.(check (float 1e-9)) "3 stacked" 15.0 (Exact.Sap_brute.value path tasks)

(* The acceptance instance class: 40 tasks is far past the brute guard,
   yet the branch and bound certifies optimality in well under a second. *)
let bb_solves_beyond_brute () =
  let prng = Util.Prng.create 11 in
  let path = Gen.Profiles.uniform ~edges:8 ~capacity:6 in
  let tasks = Gen.Workloads.mixed_tasks ~prng ~path ~n:40 () in
  (try
     ignore (Exact.Sap_brute.solve path tasks);
     Alcotest.fail "Sap_brute accepted 40 tasks"
   with Invalid_argument _ -> ());
  let out = Exact.Exact_bb.solve path tasks in
  Alcotest.(check bool) "optimal at 40 tasks" true out.Exact.Exact_bb.optimal;
  Helpers.assert_feasible_sap path out.Exact.Exact_bb.solution;
  Alcotest.(check bool) "value matches its certificate" true
    (Helpers.close_enough out.Exact.Exact_bb.value out.Exact.Exact_bb.upper_bound)

(* ---------- corpus ---------- *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sap-lab-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let corpus_roundtrip () =
  with_tmp_dir (fun dir ->
      let t = Lab.Corpus.generate ~dir ~seed:5 ~variants:1 () in
      Alcotest.(check int) "one instance per family"
        (List.length Lab.Corpus.families)
        (List.length t.Lab.Corpus.entries);
      match Lab.Corpus.load ~dir with
      | Error m -> Alcotest.failf "load: %s" m
      | Ok t' ->
          Alcotest.(check int) "seed survives" 5 t'.Lab.Corpus.seed;
          Alcotest.(check int) "entries survive"
            (List.length t.Lab.Corpus.entries)
            (List.length t'.Lab.Corpus.entries);
          List.iter
            (fun e ->
              match Lab.Corpus.read t' e with
              | Ok (Lab.Corpus.Path_instance (path, tasks)) ->
                  Alcotest.(check bool)
                    (e.Lab.Corpus.file ^ " parses to tasks")
                    true
                    (Core.Path.num_edges path > 0 && tasks <> [])
              | Ok (Lab.Corpus.Ring_instance r) ->
                  Alcotest.(check bool)
                    (e.Lab.Corpus.file ^ " parses to ring tasks")
                    true
                    (Array.length r.Ring.tasks > 0)
              | Ok (Lab.Corpus.Round_instance i) ->
                  Alcotest.(check bool)
                    (e.Lab.Corpus.file ^ " parses to round tasks")
                    true
                    (Round.Instance.task_count i > 0)
              | Error m -> Alcotest.failf "%s: %s" e.Lab.Corpus.file m)
            t'.Lab.Corpus.entries)

let corpus_deterministic () =
  with_tmp_dir (fun dir1 ->
      with_tmp_dir (fun dir2' ->
          let dir2 = dir2' ^ "-b" in
          let t1 = Lab.Corpus.generate ~dir:dir1 ~seed:9 ~variants:1 () in
          let t2 = Lab.Corpus.generate ~dir:dir2 ~seed:9 ~variants:1 () in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun e -> Sys.remove (Filename.concat dir2 e.Lab.Corpus.file))
                t2.Lab.Corpus.entries;
              Sys.remove (Filename.concat dir2 Lab.Corpus.manifest_file);
              Unix.rmdir dir2)
            (fun () ->
              List.iter2
                (fun e1 e2 ->
                  let read t e =
                    Sap_io.Instance_io.read_file
                      (Filename.concat t.Lab.Corpus.dir e.Lab.Corpus.file)
                  in
                  Alcotest.(check string)
                    (e1.Lab.Corpus.file ^ " reproducible")
                    (read t1 e1) (read t2 e2))
                t1.Lab.Corpus.entries t2.Lab.Corpus.entries)))

(* Churn traces share the instance formats' 2^40 limit: a capacity, a
   task or [add] demand, or a [resize] demand past it is a parse error
   that names the limit, and the limit itself parses. *)
let churn_quantity_limit () =
  let lim = Sap_io.Instance_io.max_quantity in
  let trace ?(cap = 8) ?(demand = 2) event =
    Printf.sprintf
      "sap-churn v1\nseed 1\nsteps 1\ncapacities %d 8\ntask 0 0 1 %d 1.5\n%s\n"
      cap demand event
  in
  let names_limit m =
    let sub = string_of_int lim in
    let n = String.length sub in
    let rec go i =
      i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
    in
    go 0
  in
  (match Lab.Corpus.churn_of_string (trace ~cap:lim ~demand:lim "event remove 0") with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "at the limit: rejected: %s" m);
  List.iter
    (fun (what, text) ->
      match Lab.Corpus.churn_of_string text with
      | Ok _ -> Alcotest.failf "%s past the limit: accepted" what
      | Error m ->
          Alcotest.(check bool) (what ^ ": names the limit") true (names_limit m))
    [
      ("capacity", trace ~cap:(2 * lim) "event remove 0");
      ("task demand", trace ~demand:(lim + 1) "event remove 0");
      ("add demand", trace (Printf.sprintf "event add 1 0 1 %d 2.5" (lim + 1)));
      ("resize demand", trace (Printf.sprintf "event resize 0 %d" (lim + 1)));
    ]

(* A churn base passes the instance task-list check: a base that repeats
   a task id fails to parse (so `session --churn` exits 2 before it
   connects) rather than failing the replay's session-open. *)
let churn_base_checked () =
  let trace base =
    "sap-churn v1\nseed 1\nsteps 1\ncapacities 8 8\n" ^ base ^ "event remove 0\n"
  in
  (match Lab.Corpus.churn_of_string (trace "task 0 0 1 2 1.5\ntask 1 0 0 3 1\n") with
  | Ok c -> Alcotest.(check int) "two base tasks" 2 (List.length c.Lab.Corpus.churn_base)
  | Error m -> Alcotest.failf "distinct ids rejected: %s" m);
  match Lab.Corpus.churn_of_string (trace "task 0 0 1 2 1.5\ntask 0 0 0 3 1\n") with
  | Ok _ -> Alcotest.fail "a repeated base id parsed"
  | Error m -> Alcotest.(check string) "the instance check's error" "duplicate task id 0" m

(* ---------- the ratio pipeline ---------- *)

let ratio_run_respects_bounds () =
  with_tmp_dir (fun dir ->
      let t = Lab.Corpus.generate ~dir ~seed:3 ~variants:1 () in
      let report = Lab.Ratio.run t in
      Alcotest.(check int) "no bound violations" 0 report.Lab.Ratio.violations;
      Alcotest.(check int) "no oracle disagreements" 0
        report.Lab.Ratio.disagreements;
      (* Every algorithm appears, and every measured exact ratio is at
         least 1 (the oracle is an upper bound on any feasible weight). *)
      List.iter
        (fun alg ->
          Alcotest.(check bool) (alg ^ " measured") true
            (List.exists
               (fun m -> m.Lab.Ratio.alg = alg)
               report.Lab.Ratio.measurements))
        [ "small"; "medium"; "large"; "combine"; "ring" ];
      List.iter
        (fun m ->
          match (m.Lab.Ratio.bound_kind, m.Lab.Ratio.ratio) with
          | Lab.Ratio.Exact_opt, Some r ->
              Alcotest.(check bool)
                (m.Lab.Ratio.file ^ "/" ^ m.Lab.Ratio.alg ^ " ratio >= 1")
                true (r >= 1.0 -. 1e-9)
          | _ -> ())
        report.Lab.Ratio.measurements;
      (* bb-stress rows really exercised the post-guard regime. *)
      Alcotest.(check bool) "bb-stress measured exactly" true
        (List.exists
           (fun m ->
             m.Lab.Ratio.family = "bb-stress"
             && m.Lab.Ratio.alg = "combine"
             && m.Lab.Ratio.bound_kind = Lab.Ratio.Exact_opt
             && m.Lab.Ratio.subset_size > Exact.Sap_brute.task_cap)
           report.Lab.Ratio.measurements))

let ratio_budget_degrades_to_lp () =
  with_tmp_dir (fun dir ->
      let t = Lab.Corpus.generate ~dir ~seed:3 ~variants:1 () in
      let bb_stress =
        {
          t with
          Lab.Corpus.entries =
            List.filter
              (fun e -> e.Lab.Corpus.family = "bb-stress")
              t.Lab.Corpus.entries;
        }
      in
      let report = Lab.Ratio.run ~max_nodes:50 bb_stress in
      let combine_row =
        List.find
          (fun m -> m.Lab.Ratio.alg = "combine")
          report.Lab.Ratio.measurements
      in
      Alcotest.(check bool) "degraded to lp" true
        (combine_row.Lab.Ratio.bound_kind = Lab.Ratio.Lp_opt);
      Alcotest.(check bool) "lp rows never gate" true
        combine_row.Lab.Ratio.within_bound;
      Alcotest.(check int) "no violations from lp rows" 0
        report.Lab.Ratio.violations)

let ratio_json_schema () =
  with_tmp_dir (fun dir ->
      let t = Lab.Corpus.generate ~dir ~seed:3 ~variants:1 () in
      let report = Lab.Ratio.run t in
      let json = Lab.Ratio.report_json report in
      (* Must round-trip through the parser and carry the v1 envelope. *)
      match Obs.Json.of_string (Obs.Json.to_string json) with
      | Error m -> Alcotest.failf "report JSON does not re-parse: %s" m
      | Ok (Obs.Json.Obj fields) ->
          Alcotest.(check bool) "schema tag" true
            (List.assoc_opt "schema" fields
            = Some (Obs.Json.String "sap-ratio v1"));
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " present") true
                (List.mem_assoc k fields))
            [ "corpus"; "config"; "measurements"; "summary"; "families";
              "violations"; "disagreements" ]
      | Ok _ -> Alcotest.fail "report JSON is not an object")

(* The per-family breakdown: every (family, alg) pair seen in the
   measurements gets exactly one row, the rows partition the
   measurements, and the JSON rows carry the pinned key set. *)
let ratio_family_breakdown () =
  with_tmp_dir (fun dir ->
      let t = Lab.Corpus.generate ~dir ~seed:3 ~variants:2 () in
      let report = Lab.Ratio.run t in
      let fams = report.Lab.Ratio.families in
      Alcotest.(check bool) "breakdown is non-empty" true (fams <> []);
      let pairs =
        List.map (fun f -> (f.Lab.Ratio.f_family, f.Lab.Ratio.f_alg)) fams
      in
      Alcotest.(check bool) "no duplicate (family, alg) rows" true
        (List.length pairs = List.length (List.sort_uniq compare pairs));
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "row for %s/%s" m.Lab.Ratio.family m.Lab.Ratio.alg)
            true
            (List.mem (m.Lab.Ratio.family, m.Lab.Ratio.alg) pairs))
        report.Lab.Ratio.measurements;
      Alcotest.(check int) "family counts partition the measurements"
        (List.length report.Lab.Ratio.measurements)
        (List.fold_left (fun a f -> a + f.Lab.Ratio.f_count) 0 fams);
      (* A family with only one generator family must dominate its rows:
         filter to one family and the breakdown collapses to it. *)
      (match report.Lab.Ratio.measurements with
      | m :: _ ->
          let only =
            List.filter
              (fun f -> f.Lab.Ratio.f_family = m.Lab.Ratio.family)
              fams
          in
          Alcotest.(check bool) "first family has rows" true (only <> [])
      | [] -> Alcotest.fail "no measurements");
      (* Pin the JSON vocabulary of a family row. *)
      match Lab.Ratio.report_json report with
      | Obs.Json.Obj fields -> (
          match List.assoc_opt "families" fields with
          | Some (Obs.Json.List (Obs.Json.Obj row :: _)) ->
              List.iter
                (fun k ->
                  Alcotest.(check bool) (k ^ " present in family row") true
                    (List.mem_assoc k row))
                [ "family"; "alg"; "count"; "max_ratio"; "mean_ratio";
                  "exact_opts"; "violations" ]
          | _ -> Alcotest.fail "families is not a non-empty list of objects")
      | _ -> Alcotest.fail "report JSON is not an object")

(* ---------- Combine.audit bound_kind ---------- *)

let audit_records_bound_kind () =
  let path, tasks = Helpers.tiny_instance ~max_tasks:8 17 in
  let r = Sap.Combine.solve_report path tasks in
  let lp_audit = Sap.Combine.audit ~report:r path tasks r.Sap.Combine.solution in
  Alcotest.(check bool) "default is lp" true
    (lp_audit.Sap.Combine.bound_kind = Sap.Combine.Lp_bound);
  let opt = Exact.Exact_bb.value path tasks in
  let exact_audit =
    Sap.Combine.audit ~exact_optimum:opt ~report:r path tasks r.Sap.Combine.solution
  in
  Alcotest.(check bool) "exact_optimum tags Exact_bound" true
    (exact_audit.Sap.Combine.bound_kind = Sap.Combine.Exact_bound);
  Alcotest.(check (float 1e-9)) "upper bound is the optimum" opt
    exact_audit.Sap.Combine.upper_bound;
  (* The JSON vocabulary the reports use. *)
  let has_kv json k v =
    match json with
    | Obs.Json.Obj fields -> List.assoc_opt k fields = Some (Obs.Json.String v)
    | _ -> false
  in
  Alcotest.(check bool) "json bound_kind lp" true
    (has_kv (Sap.Combine.audit_json lp_audit) "bound_kind" "lp");
  Alcotest.(check bool) "json bound_kind exact" true
    (has_kv (Sap.Combine.audit_json exact_audit) "bound_kind" "exact")

(* LP-bounded rows must stay out of the summary aggregates: a ratio
   measured against an over-estimate of OPT proves nothing, so it must
   neither feed max/mean nor rank an instance "worst". *)
(* The instantiated bounds, read off the registry, and their order are
   the sap-ratio report's contract. *)
let ratio_bounds_pinned () =
  Alcotest.(check (list (pair string (float 1e-9))))
    "instantiated bounds"
    [
      ("small", 4.5);
      ("medium", 2.5);
      ("large", 3.0);
      ("combine", 10.0);
      ("ring", 11.1);
    ]
    Lab.Ratio.bounds

let ratio_summary_excludes_lp_rows () =
  with_tmp_dir (fun dir ->
      let t = Lab.Corpus.generate ~dir ~seed:3 ~variants:1 () in
      let stress =
        {
          t with
          Lab.Corpus.entries =
            List.filter
              (fun e -> e.Lab.Corpus.family = "bb-stress")
              t.Lab.Corpus.entries;
        }
      in
      let report = Lab.Ratio.run ~max_nodes:50 stress in
      Alcotest.(check bool) "stress entries exist" true
        (stress.Lab.Corpus.entries <> []);
      (* The LP rows must still carry a (bound-relative) ratio — the
         exclusion below is the summary's doing, not a missing value. *)
      Alcotest.(check bool) "some row degraded to lp with a ratio" true
        (List.exists
           (fun (m : Lab.Ratio.measurement) ->
             m.Lab.Ratio.bound_kind = Lab.Ratio.Lp_opt
             && m.Lab.Ratio.ratio <> None)
           report.Lab.Ratio.measurements);
      (* combine gets all 40 tasks; 50 nodes cannot close that search. *)
      let combine_row =
        List.find
          (fun (s : Lab.Ratio.summary_row) -> s.Lab.Ratio.s_alg = "combine")
          report.Lab.Ratio.summaries
      in
      Alcotest.(check bool) "combine rows all lp" true
        (combine_row.Lab.Ratio.exact_opts = 0
        && combine_row.Lab.Ratio.lp_fallbacks = combine_row.Lab.Ratio.count
        && combine_row.Lab.Ratio.count > 0);
      List.iter
        (fun (s : Lab.Ratio.summary_row) ->
          if s.Lab.Ratio.exact_opts = 0 then begin
            Alcotest.(check bool)
              (s.Lab.Ratio.s_alg ^ " max/mean over exact rows only")
              true
              (s.Lab.Ratio.max_ratio = None && s.Lab.Ratio.mean_ratio = None);
            Alcotest.(check bool)
              (s.Lab.Ratio.s_alg ^ " lp row never ranks worst")
              true
              (s.Lab.Ratio.worst_file = None)
          end)
        report.Lab.Ratio.summaries)

(* ---------- mutation operators ---------- *)

let check_path_instance ~what path tasks =
  let n = List.length tasks in
  List.iteri
    (fun i (t : Task.t) ->
      if t.Task.id <> i then Alcotest.failf "%s: ids not 0..n-1" what;
      if t.Task.weight <= 0.0 then Alcotest.failf "%s: nonpositive weight" what;
      if
        t.Task.first_edge < 0
        || t.Task.last_edge >= Path.num_edges path
        || t.Task.first_edge > t.Task.last_edge
      then Alcotest.failf "%s: span out of range" what;
      if t.Task.demand < 1 || t.Task.demand > Path.bottleneck_of path t then
        Alcotest.failf "%s: demand outside [1, bottleneck]" what)
    tasks;
  Array.iter
    (fun c -> if c < 1 then Alcotest.failf "%s: nonpositive capacity" what)
    (Path.capacities path);
  ignore n

let check_ring_instance ~what (r : Ring.t) =
  let m = Ring.num_edges r in
  let best (t : Ring.task) =
    let route dir =
      List.fold_left
        (fun acc e -> min acc r.Ring.capacities.(e))
        max_int
        (Ring.edges_of_route ~m ~src:t.Ring.src ~dst:t.Ring.dst dir)
    in
    max (route Ring.Cw) (route Ring.Ccw)
  in
  Array.iteri
    (fun i (t : Ring.task) ->
      if t.Ring.id <> i then Alcotest.failf "%s: ids not 0..n-1" what;
      if t.Ring.weight <= 0.0 then Alcotest.failf "%s: nonpositive weight" what;
      if t.Ring.src = t.Ring.dst then Alcotest.failf "%s: src = dst" what;
      if t.Ring.demand < 1 || t.Ring.demand > best t then
        Alcotest.failf "%s: demand not routable either way" what)
    r.Ring.tasks;
  Array.iter
    (fun c -> if c < 1 then Alcotest.failf "%s: nonpositive capacity" what)
    r.Ring.capacities

let perturb_path_mutants_valid =
  Helpers.seed_property ~count:60 "path mutants stay well-formed" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:8 seed in
      let prng = Util.Prng.create (seed + 1) in
      List.iter
        (fun op ->
          for _ = 1 to 4 do
            match Gen.Perturb.mutate_path ~prng ~max_tasks:12 op path tasks with
            | None -> ()
            | Some (path', tasks') ->
                check_path_instance
                  ~what:(Gen.Perturb.op_name op)
                  path' tasks';
                if tasks' = [] then
                  Alcotest.failf "%s: emptied the instance"
                    (Gen.Perturb.op_name op)
          done)
        Gen.Perturb.all_ops;
      true)

let perturb_ring_mutants_valid =
  Helpers.seed_property ~count:60 "ring mutants stay well-formed" (fun seed ->
      let prng = Util.Prng.create seed in
      let r =
        Gen.Ring_gen.random ~prng
          ~edges:(4 + (seed mod 3))
          ~n:(3 + (seed mod 4))
          ~cap_lo:4 ~cap_hi:12 ~ratio_lo:0.0 ~ratio_hi:0.9
      in
      List.iter
        (fun op ->
          for _ = 1 to 4 do
            match Gen.Perturb.mutate_ring ~prng ~max_tasks:12 op r with
            | None -> ()
            | Some r' -> check_ring_instance ~what:(Gen.Perturb.op_name op) r'
          done)
        Gen.Perturb.all_ops;
      true)

(* ---------- the hunt ---------- *)

let small_hunt_config =
  {
    Lab.Hunt.default_config with
    Lab.Hunt.alg = "combine";
    seed = 11;
    generations = 4;
    population = 8;
    max_nodes = 50_000;
  }

let hunt_deterministic () =
  let r1 = Lab.Hunt.run small_hunt_config in
  let r2 = Lab.Hunt.run small_hunt_config in
  Alcotest.(check string) "identical reports"
    (Obs.Json.to_string (Lab.Hunt.report_json r1))
    (Obs.Json.to_string (Lab.Hunt.report_json r2))

let hunt_pool_matches_sequential () =
  let seq = Lab.Hunt.run small_hunt_config in
  let par = Lab.Hunt.run ~jobs:3 small_hunt_config in
  Alcotest.(check string) "pooled = sequential"
    (Obs.Json.to_string (Lab.Hunt.report_json seq))
    (Obs.Json.to_string (Lab.Hunt.report_json par))

let hunt_hof_certified_and_monotone () =
  let report = Lab.Hunt.run { small_hunt_config with Lab.Hunt.alg = "small" } in
  Alcotest.(check int) "one log entry per generation"
    small_hunt_config.Lab.Hunt.generations
    (List.length report.Lab.Hunt.log);
  let rec check_monotone prev = function
    | [] -> ()
    | (l : Lab.Hunt.generation_log) :: rest ->
        if l.Lab.Hunt.g_best < prev -. 1e-12 then
          Alcotest.failf "best ratio regressed at generation %d"
            l.Lab.Hunt.g_index;
        check_monotone l.Lab.Hunt.g_best rest
  in
  check_monotone 0.0 report.Lab.Hunt.log;
  let rec check_sorted = function
    | (a : Lab.Hunt.scored) :: (b :: _ as rest) ->
        if a.Lab.Hunt.ratio < b.Lab.Hunt.ratio -. 1e-12 then
          Alcotest.fail "hall of fame not ratio-descending";
        check_sorted rest
    | _ -> ()
  in
  check_sorted report.Lab.Hunt.hall_of_fame;
  List.iter
    (fun (s : Lab.Hunt.scored) ->
      Alcotest.(check bool) "hof entry exact-certified" true s.Lab.Hunt.exact;
      (match s.Lab.Hunt.instance with
      | Lab.Corpus.Path_instance (p, ts) ->
          check_path_instance ~what:"hof instance" p ts
      | Lab.Corpus.Ring_instance r -> check_ring_instance ~what:"hof ring" r
      | Lab.Corpus.Round_instance _ ->
          Alcotest.fail "hunt produced a round instance");
      Alcotest.(check bool) "hof ratio is opt/alg" true
        (s.Lab.Hunt.alg_weight > 0.0
        && Float.abs
             (s.Lab.Hunt.ratio -. (s.Lab.Hunt.opt /. s.Lab.Hunt.alg_weight))
           < 1e-9))
    report.Lab.Hunt.hall_of_fame;
  match report.Lab.Hunt.hall_of_fame with
  | [] -> Alcotest.fail "empty hall of fame"
  | best :: _ ->
      Alcotest.(check (float 1e-12)) "final log entry is the hof best"
        best.Lab.Hunt.ratio
        (List.nth report.Lab.Hunt.log
           (List.length report.Lab.Hunt.log - 1))
          .Lab.Hunt.g_best

let hunt_report_schema () =
  let report = Lab.Hunt.run { small_hunt_config with Lab.Hunt.generations = 2 } in
  match Obs.Json.of_string (Obs.Json.to_string (Lab.Hunt.report_json report)) with
  | Error m -> Alcotest.failf "hunt JSON does not re-parse: %s" m
  | Ok (Obs.Json.Obj fields) ->
      Alcotest.(check bool) "schema tag" true
        (List.assoc_opt "schema" fields
        = Some (Obs.Json.String "sap-hunt v1"));
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true
            (List.assoc_opt k fields <> None))
        [
          "alg"; "seed"; "bound"; "evaluated"; "best_ratio";
          "generations_log"; "operators"; "hall_of_fame";
        ]
  | Ok _ -> Alcotest.fail "hunt JSON is not an object"

let hunt_write_hof_roundtrip () =
  with_tmp_dir (fun dir ->
      let hof_dir = Filename.concat dir "hof" in
      let report = Lab.Hunt.run small_hunt_config in
      let files = Lab.Hunt.write_hof ~dir:hof_dir report in
      Alcotest.(check int) "one file per hof entry"
        (List.length report.Lab.Hunt.hall_of_fame)
        (List.length files);
      List.iter
        (fun f ->
          let text = Sap_io.Instance_io.read_file (Filename.concat hof_dir f) in
          match Sap_io.Instance_io.instance_of_string text with
          | Ok (p, ts) -> check_path_instance ~what:f p ts
          | Error _ -> (
              match Sap_io.Instance_io.ring_of_string text with
              | Ok r -> check_ring_instance ~what:f r
              | Error m -> Alcotest.failf "%s: %s" f m))
        files)

let hunt_rejects_unknown_alg () =
  Alcotest.check_raises "unknown alg"
    (Invalid_argument
       "Lab.Hunt: unknown algorithm \"grande\" (have: small, medium, large, \
        combine, ring)")
    (fun () ->
      ignore (Lab.Hunt.run { small_hunt_config with Lab.Hunt.alg = "grande" }))

(* ---------- loadgen ---------- *)

module Loadgen = Lab.Loadgen
module Server = Sap_server.Server
module Transport = Sap_server.Transport

let lg_config =
  {
    Loadgen.default_config with
    Loadgen.rps = 40.0;
    duration = 1.0;
    distinct = 8;
    seed = 11;
    scrape_stats = false;
  }

let with_server f =
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 2 } ()
  in
  Fun.protect ~finally:(fun () -> Server.drain srv) (fun () -> f srv)

let loadgen_closed_deterministic () =
  let run () =
    with_server @@ fun srv ->
    match Loadgen.run_closed ~handle:(Server.handle srv) lg_config with
    | Error m -> Alcotest.failf "run_closed: %s" m
    | Ok r -> r
  in
  let a = run () in
  let b = run () in
  Alcotest.(check int) "sent = round(rps*duration)" 40 a.Loadgen.sent;
  Alcotest.(check int) "all completed" 40 a.Loadgen.completed;
  Alcotest.(check int) "one fresh solve per distinct instance" 8
    a.Loadgen.solved;
  Alcotest.(check int) "revisits cached" 32 a.Loadgen.cached;
  Alcotest.(check int) "no failures" 0
    (a.Loadgen.timeouts + a.Loadgen.errors + a.Loadgen.lost);
  Alcotest.(check (list string)) "no protocol errors" []
    a.Loadgen.protocol_errors;
  (* The counter shape is a function of the seed alone. *)
  Alcotest.(check int) "solved reproducible" a.Loadgen.solved b.Loadgen.solved;
  Alcotest.(check int) "cached reproducible" a.Loadgen.cached b.Loadgen.cached;
  (match Loadgen.cache_hit_rate a with
  | Some rate -> Alcotest.(check (float 1e-9)) "hit rate" 0.8 rate
  | None -> Alcotest.fail "hit rate missing");
  Alcotest.(check int) "latency samples" 40 a.Loadgen.latency.Obs.Metrics.count;
  Alcotest.(check bool) "latencies nonnegative" true
    (a.Loadgen.latency.Obs.Metrics.min >= 0.0);
  (* The sap-loadgen v1 report parses with our own parser. *)
  let j = Loadgen.report_json a in
  (match j with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool) "schema" true
        (List.assoc_opt "schema" fields
        = Some (Obs.Json.String "sap-loadgen v1"));
      Alcotest.(check bool) "server_stats null without scrape" true
        (List.assoc_opt "server_stats" fields = Some Obs.Json.Null)
  | _ -> Alcotest.fail "report is not an object");
  Alcotest.(check bool) "report round-trips" true
    (match Obs.Json.of_string (Obs.Json.to_string j) with
    | Ok _ -> true
    | Error _ -> false)

let loadgen_validates_config () =
  let bad what cfg =
    match Loadgen.run_closed ~handle:(fun _ -> assert false) cfg with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected a config error" what
  in
  bad "unknown profile" { lg_config with Loadgen.profile = "nope" };
  bad "zero rps" { lg_config with Loadgen.rps = 0.0 };
  bad "negative duration" { lg_config with Loadgen.duration = -1.0 };
  bad "zero connections" { lg_config with Loadgen.connections = 0 }

(* [f connect] against an in-process server: every [connect] hands back
   one end of a socketpair served by its own domain. *)
let with_socketpair_server f =
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 2 } ()
  in
  let doms = ref [] in
  let lock = Mutex.create () in
  let connect () =
    let client_fd, server_fd =
      Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    let d =
      Domain.spawn (fun () ->
          let ic = Unix.in_channel_of_descr server_fd in
          let oc = Unix.out_channel_of_descr server_fd in
          Transport.serve_channels srv ic oc;
          (try flush oc with Sys_error _ -> ());
          try Unix.close server_fd with Unix.Unix_error _ -> ())
    in
    Mutex.lock lock;
    doms := d :: !doms;
    Mutex.unlock lock;
    Ok client_fd
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Domain.join !doms;
      Server.drain srv)
    (fun () -> f connect)

let loadgen_open_loop_over_socketpairs () =
  (* The full open-loop pipeline — pacer, pipelined connections, reader
     domains, mid-run stats scrape — against an in-process server. *)
  with_socketpair_server @@ fun connect ->
  let cfg =
    {
      lg_config with
      Loadgen.rps = 120.0;
      duration = 0.5;
      connections = 2;
      scrape_stats = true;
    }
  in
  match Loadgen.run ~connect cfg with
  | Error m -> Alcotest.failf "loadgen run: %s" m
  | Ok r ->
      Alcotest.(check int) "sent" 60 r.Loadgen.sent;
      Alcotest.(check int) "all completed" 60 r.Loadgen.completed;
      Alcotest.(check int) "no failures" 0
        (r.Loadgen.timeouts + r.Loadgen.errors + r.Loadgen.lost);
      Alcotest.(check (list string)) "no protocol errors" []
        r.Loadgen.protocol_errors;
      (* Concurrent connections may race the first visit to an instance,
         so fresh solves can exceed [distinct] — but never undershoot. *)
      Alcotest.(check bool) "every distinct instance solved" true
        (r.Loadgen.solved >= 8);
      Alcotest.(check int) "solved + cached = completed" 60
        (r.Loadgen.solved + r.Loadgen.cached);
      Alcotest.(check int) "latency samples" 60
        r.Loadgen.latency.Obs.Metrics.count;
      Alcotest.(check bool) "p50 positive" true
        (Obs.Metrics.quantile r.Loadgen.latency 0.5 > 0.0);
      Alcotest.(check bool) "achieved rps positive" true
        (r.Loadgen.achieved_rps > 0.0);
      (match r.Loadgen.server_stats with
      | Some (Obs.Json.Obj fields) ->
          Alcotest.(check bool) "scraped stats schema" true
            (List.assoc_opt "schema" fields
            = Some (Obs.Json.String "sap-server-stats v2"))
      | _ -> Alcotest.fail "mid-run stats scrape missing")

let session_replay_over_socketpairs () =
  (* The churn replay behind `sap_cli session`: warm, cold, and the -i
     path's empty event list. *)
  with_socketpair_server @@ fun connect ->
  let c = Lab.Corpus.generate_churn ~seed:7 ~steps:8 in
  let replay ~cold events =
    match
      Loadgen.session ~connect ~seed:42 ~cold ~resolve_every:1
        c.Lab.Corpus.churn_path c.Lab.Corpus.churn_base events
    with
    | Error m -> Alcotest.failf "session: %s" m
    | Ok r ->
        Alcotest.(check (list string)) "no failures" [] r.Loadgen.se_failures;
        r
  in
  let warm_seeded r =
    List.fold_left
      (fun acc s -> acc + s.Sap_server.Protocol.s_warm)
      0 r.Loadgen.se_summaries
  in
  let warm = replay ~cold:false c.Lab.Corpus.churn_events in
  Alcotest.(check int) "events" 8 warm.Loadgen.se_events;
  Alcotest.(check int) "open + 8 resolves" 9
    (List.length warm.Loadgen.se_summaries);
  Alcotest.(check bool) "warm-seeded" true (warm_seeded warm > 0);
  let cold = replay ~cold:true c.Lab.Corpus.churn_events in
  Alcotest.(check int) "cold: open + 8 resolves" 9
    (List.length cold.Loadgen.se_summaries);
  Alcotest.(check int) "cold: nothing warm-seeded" 0 (warm_seeded cold);
  let smoke = replay ~cold:false [] in
  Alcotest.(check int) "-i: open + one resolve" 2
    (List.length smoke.Loadgen.se_summaries);
  match Loadgen.session_json warm with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool) "schema" true
        (List.assoc_opt "schema" fields
        = Some (Obs.Json.String "sap-session-report v1"));
      Alcotest.(check bool) "failures" true
        (List.assoc_opt "failures" fields = Some (Obs.Json.Int 0))
  | _ -> Alcotest.fail "session report is not an object"

let run () =
  Alcotest.run "lab"
    [
      ( "exact_bb",
        [
          bb_matches_brute;
          bb_matches_brute_pooled;
          bb_ring_matches_brute;
          case "budget reports nonoptimal" bb_budget_reports_nonoptimal;
          case "palette sweep vs brute (2k seeds)" bb_brute_palette_sweep;
        ] );
      ( "oracle guards",
        [
          case "sap_brute guard" brute_guard_trips;
          case "ring_brute guard" ring_guard_trips;
          case "symmetry cut optimal" brute_symmetry_still_optimal;
          case "40 tasks beyond the guard" bb_solves_beyond_brute;
        ] );
      ( "corpus",
        [
          case "round trip" corpus_roundtrip;
          case "deterministic" corpus_deterministic;
          case "churn traces obey the 2^40 limit" churn_quantity_limit;
          case "a churn base repeating an id is rejected" churn_base_checked;
        ] );
      ( "ratio",
        [
          case "bounds hold on seeded corpus" ratio_run_respects_bounds;
          case "budget degrades to lp" ratio_budget_degrades_to_lp;
          case "sap-ratio v1 schema" ratio_json_schema;
          case "per-family breakdown" ratio_family_breakdown;
          case "summary excludes lp rows" ratio_summary_excludes_lp_rows;
          case "bounds pinned" ratio_bounds_pinned;
        ] );
      ( "audit",
        [ case "bound_kind recorded" audit_records_bound_kind ] );
      ( "perturb",
        [ perturb_path_mutants_valid; perturb_ring_mutants_valid ] );
      ( "hunt",
        [
          case "deterministic" hunt_deterministic;
          case "pooled = sequential" hunt_pool_matches_sequential;
          case "hof certified + monotone" hunt_hof_certified_and_monotone;
          case "sap-hunt v1 schema" hunt_report_schema;
          case "write_hof round trip" hunt_write_hof_roundtrip;
          case "unknown alg rejected" hunt_rejects_unknown_alg;
        ] );
      ( "loadgen",
        [
          case "closed loop deterministic" loadgen_closed_deterministic;
          case "config validation" loadgen_validates_config;
          case "open loop over socketpairs" loadgen_open_loop_over_socketpairs;
          case "session replay over socketpairs" session_replay_over_socketpairs;
        ] );
    ]

let () = run ()
