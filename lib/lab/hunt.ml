module Task = Core.Task
module Path = Core.Path
module Ring = Core.Ring
module Prng = Util.Prng
module Json = Obs.Json
module Perturb = Gen.Perturb
module Exact_bb = Exact.Exact_bb

let schema = "sap-hunt v1"

type config = {
  alg : string;
  seed : int;
  generations : int;
  population : int;
  max_nodes : int;
  hof_size : int;
  max_tasks : int;
}

let default_config =
  {
    alg = "combine";
    seed = 42;
    generations = 8;
    population = 16;
    max_nodes = 200_000;
    hof_size = 5;
    max_tasks = 12;
  }

let algs = List.map fst Ratio.bounds

type scored = {
  instance : Corpus.instance;
  ratio : float;
  exact : bool;
  opt : float;
  alg_weight : float;
  bb_nodes : int;
  born : int;
  op : string;
}

type generation_log = {
  g_index : int;
  g_best : float;
  g_evaluated : int;
  g_hof_size : int;
}

type op_stat = { os_name : string; applied : int; improved : int }

type report = {
  r_config : config;
  r_bound : float;
  hall_of_fame : scored list;
  log : generation_log list;
  op_stats : op_stat list;
  evaluated : int;
  exact_scores : int;
  lp_fallbacks : int;
}

(* ---------- metrics ---------- *)

let c_evaluated = Obs.Metrics.counter "lab.hunt.evaluated"

let c_exact = Obs.Metrics.counter "lab.hunt.exact"

let c_lp = Obs.Metrics.counter "lab.hunt.lp_fallbacks"

let seed_op = "seed"

let op_names = List.map Perturb.op_name Perturb.all_ops @ [ seed_op ]

let op_counters =
  List.map
    (fun name ->
      ( name,
        ( Obs.Metrics.counter ("lab.hunt.mutations." ^ name),
          Obs.Metrics.counter ("lab.hunt.improved." ^ name) ) ))
    op_names

(* ---------- seeding ---------- *)

let cc = Sap.Combine.default_config

let thresholds = [ cc.Sap.Combine.delta; 1.0 -. (2.0 *. cc.Sap.Combine.beta) ]

let random_path prng =
  let edges = Prng.int_in prng 4 7 in
  match Prng.int prng 4 with
  | 0 -> Gen.Profiles.uniform ~edges ~capacity:(Prng.int_in prng 4 12)
  | 1 ->
      Gen.Profiles.valley ~edges
        ~high:(Prng.int_in prng 8 14)
        ~low:(Prng.int_in prng 4 7)
  | 2 ->
      Gen.Profiles.staircase ~edges
        ~steps:(Prng.int_in prng 2 3)
        ~base:(Prng.int_in prng 3 5)
  | _ ->
      Gen.Profiles.random_walk ~prng ~edges
        ~start:(Prng.int_in prng 6 12)
        ~max_step:2 ~min_cap:4

(* Generation-0 candidates start in the target algorithm's demand regime
   so the classified subset is non-trivial from the first evaluation. *)
let seed_instance alg prng =
  if alg = "ring" then
    Corpus.Ring_instance
      (Gen.Ring_gen.random ~prng
         ~edges:(Prng.int_in prng 5 6)
         ~n:(Prng.int_in prng 4 6)
         ~cap_lo:4 ~cap_hi:12 ~ratio_lo:0.0 ~ratio_hi:0.9)
  else
    let path = random_path prng in
    let n = Prng.int_in prng 6 10 in
    let tasks =
      match alg with
      | "small" ->
          Gen.Workloads.small_tasks ~prng ~path ~n ~delta:cc.Sap.Combine.delta ()
      | "medium" ->
          Gen.Workloads.ratio_tasks ~prng ~path ~n ~lo:cc.Sap.Combine.delta
            ~hi:0.5 ()
      | "large" -> Gen.Workloads.ratio_tasks ~prng ~path ~n ~lo:0.5 ~hi:1.0 ()
      | _ -> Gen.Workloads.mixed_tasks ~prng ~path ~n ()
    in
    Corpus.Path_instance (path, tasks)

(* ---------- evaluation ---------- *)

(* The score is always certified: [incumbent / ALG] never exceeds
   [OPT / ALG], and equals it when the branch and bound closed.  A
   non-exact candidate may steer the search but never enters the hall of
   fame — a ratio against the {!Lp.Ufpp_lp} upper bound proves nothing. *)
let evaluate ~alg ~max_nodes instance =
  Obs.Metrics.incr c_evaluated;
  let zero exact = (0.0, exact, 0.0, 0.0, 0) in
  let ratio_of value w = if w > 1e-9 then value /. w else 0.0 in
  let r =
    match instance with
    | Corpus.Path_instance (path, tasks) ->
        let s = Option.get (Sap.Solvers.find alg) in
        let subset = Sap.Solvers.subset s path tasks in
        if subset = [] then zero true
        else
          let w = Core.Solution.sap_weight (Ratio.path_solve s path subset) in
          let out = Exact_bb.solve ~max_nodes path subset in
          let opt =
            if out.Exact_bb.optimal then out.Exact_bb.value
            else out.Exact_bb.upper_bound
          in
          ( ratio_of out.Exact_bb.value w,
            out.Exact_bb.optimal,
            opt,
            w,
            out.Exact_bb.nodes )
    | Corpus.Ring_instance r ->
        let w = Ring.solution_weight (Ratio.ring_solve r) in
        let out = Exact_bb.solve_ring ~max_nodes r in
        let opt =
          if out.Exact_bb.ring_optimal then out.Exact_bb.ring_value
          else
            Array.fold_left
              (fun acc (t : Ring.task) -> acc +. t.Ring.weight)
              0.0 r.Ring.tasks
        in
        ( ratio_of out.Exact_bb.ring_value w,
          out.Exact_bb.ring_optimal,
          opt,
          w,
          out.Exact_bb.ring_nodes )
    | Corpus.Round_instance _ ->
        (* The hunt maximizes weight ratios against a max-weight oracle;
           ROUND-SAP's min-rounds objective needs its own mutation set
           and scoring before it can be hunted. *)
        invalid_arg (Printf.sprintf "Lab.Hunt: cannot hunt round instances (alg %s)" alg)
  in
  let _, exact, _, _, _ = r in
  if exact then Obs.Metrics.incr c_exact else Obs.Metrics.incr c_lp;
  r

(* ---------- the evolutionary loop ---------- *)

let instance_key = function
  | Corpus.Path_instance (p, ts) -> Sap_io.Instance_io.instance_to_string p ts
  | Corpus.Ring_instance r -> Sap_io.Instance_io.ring_to_string r
  | Corpus.Round_instance i ->
      Sap_io.Instance_io.round_instance_to_string i.Round.Instance.path
        i.Round.Instance.tasks

let compare_scored a b =
  (* Ratio-descending with a deterministic tiebreak, so elitism and the
     hall of fame are independent of list construction order. *)
  match Float.compare b.ratio a.ratio with
  | 0 -> (
      match compare a.born b.born with
      | 0 -> compare (instance_key a.instance) (instance_key b.instance)
      | c -> c)
  | c -> c

let update_hof ~hof_size hof candidates =
  let keys = List.map (fun s -> instance_key s.instance) hof in
  let fresh =
    List.filter
      (fun s ->
        s.exact && s.ratio > 1e-9
        && not (List.mem (instance_key s.instance) keys))
      candidates
  in
  let merged = List.sort compare_scored (hof @ fresh) in
  List.filteri (fun i _ -> i < hof_size) merged

let best_ratio hof = match hof with [] -> 0.0 | s :: _ -> s.ratio

let run ?jobs config =
  if not (List.mem config.alg algs) then
    invalid_arg
      (Printf.sprintf "Lab.Hunt: unknown algorithm %S (have: %s)" config.alg
         (String.concat ", " algs));
  if config.generations < 1 || config.population < 2 || config.hof_size < 1 then
    invalid_arg "Lab.Hunt: need generations >= 1, population >= 2, hof >= 1";
  Obs.Trace.with_span "lab.hunt.run" ~attrs:[ ("alg", config.alg) ]
  @@ fun () ->
  let bound = List.assoc config.alg Ratio.bounds in
  let master = Prng.create config.seed in
  (* Per-candidate streams: O(1) jump to the slot, then split so each
     candidate draws an independent stream of arbitrary length.  Derived
     before any fan-out, so pooled evaluation order cannot matter. *)
  let slot_prng gen_master i = Prng.split (Prng.jump gen_master (i * 4096)) in
  let n_exact = ref 0 and n_lp = ref 0 in
  let applied = Hashtbl.create 16 and improved = Hashtbl.create 16 in
  List.iter
    (fun name ->
      Hashtbl.replace applied name 0;
      Hashtbl.replace improved name 0)
    op_names;
  let count tbl name = Hashtbl.replace tbl name (Hashtbl.find tbl name + 1) in
  let eval_many born cands =
    let score (op, instance, parent_ratio) =
      let ratio, exact, opt, alg_weight, bb_nodes =
        evaluate ~alg:config.alg ~max_nodes:config.max_nodes instance
      in
      ignore parent_ratio;
      { instance; ratio; exact; opt; alg_weight; bb_nodes; born; op }
    in
    let scored =
      Util.Parallel.map ~jobs:(Option.value jobs ~default:1) score cands
    in
    List.iter2
      (fun (op, _, parent_ratio) s ->
        if s.exact then incr n_exact else incr n_lp;
        count applied op;
        if s.ratio > parent_ratio +. 1e-9 then begin
          count improved op;
          Obs.Metrics.incr (snd (List.assoc op op_counters))
        end;
        Obs.Metrics.incr (fst (List.assoc op op_counters)))
      cands scored;
    scored
  in
  let mutate prng instance =
    let ops = Array.of_list Perturb.all_ops in
    let rec go tries =
      if tries = 0 then None
      else
        let op = Prng.choose prng ops in
        let mutant =
          match instance with
          | Corpus.Path_instance (p, ts) ->
              Option.map
                (fun (p', ts') -> Corpus.Path_instance (p', ts'))
                (Perturb.mutate_path ~prng ~max_tasks:config.max_tasks
                   ~thresholds op p ts)
          | Corpus.Ring_instance r ->
              Option.map
                (fun r' -> Corpus.Ring_instance r')
                (Perturb.mutate_ring ~prng ~max_tasks:config.max_tasks op r)
          | Corpus.Round_instance _ -> None
        in
        match mutant with
        | Some inst -> Some (Perturb.op_name op, inst)
        | None -> go (tries - 1)
    in
    go 8
  in
  (* Generation 0: fresh instances in the target demand regime. *)
  let gen_master = Prng.split master in
  let seeds =
    List.init config.population (fun i ->
        (seed_op, seed_instance config.alg (slot_prng gen_master i), 0.0))
  in
  let population = ref (eval_many 0 seeds) in
  let hof = ref (update_hof ~hof_size:config.hof_size [] !population) in
  let log =
    ref
      [
        {
          g_index = 0;
          g_best = best_ratio !hof;
          g_evaluated = config.population;
          g_hof_size = List.length !hof;
        };
      ]
  in
  for g = 1 to config.generations - 1 do
    let gen_master = Prng.split master in
    let ranked = List.sort compare_scored !population in
    let n_elite = max 1 (config.population / 4) in
    let elites = List.filteri (fun i _ -> i < n_elite) ranked in
    let parents = Array.of_list (!hof @ elites) in
    let offspring =
      List.init
        (config.population - n_elite)
        (fun i ->
          let prng = slot_prng gen_master i in
          let a = Prng.choose prng parents and b = Prng.choose prng parents in
          let parent = if compare_scored a b <= 0 then a else b in
          match mutate prng parent.instance with
          | Some (op, inst) -> (op, inst, parent.ratio)
          | None -> (seed_op, seed_instance config.alg prng, 0.0))
    in
    let scored = eval_many g offspring in
    population := elites @ scored;
    hof := update_hof ~hof_size:config.hof_size !hof scored;
    log :=
      {
        g_index = g;
        g_best = best_ratio !hof;
        g_evaluated = List.length offspring;
        g_hof_size = List.length !hof;
      }
      :: !log
  done;
  let log = List.rev !log in
  let evaluated =
    List.fold_left (fun acc l -> acc + l.g_evaluated) 0 log
  in
  let op_stats =
    List.filter_map
      (fun name ->
        let a = Hashtbl.find applied name and i = Hashtbl.find improved name in
        if a = 0 && i = 0 then None
        else Some { os_name = name; applied = a; improved = i })
      op_names
  in
  {
    r_config = config;
    r_bound = bound;
    hall_of_fame = !hof;
    log;
    op_stats;
    evaluated;
    exact_scores = !n_exact;
    lp_fallbacks = !n_lp;
  }

(* ---------- output ---------- *)

let instance_dims = function
  | Corpus.Path_instance (p, ts) -> (Path.num_edges p, List.length ts, "path")
  | Corpus.Ring_instance r ->
      (Ring.num_edges r, Array.length r.Ring.tasks, "ring")
  | Corpus.Round_instance i ->
      (Path.num_edges i.Round.Instance.path, Round.Instance.task_count i, "round")

let scored_json rank s =
  let edges, tasks, kind = instance_dims s.instance in
  Json.Obj
    [
      ("rank", Json.Int rank);
      ("ratio", Json.Float s.ratio);
      ("exact", Json.Bool s.exact);
      ("opt", Json.Float s.opt);
      ("alg_weight", Json.Float s.alg_weight);
      ("bb_nodes", Json.Int s.bb_nodes);
      ("born", Json.Int s.born);
      ("op", Json.String s.op);
      ("kind", Json.String kind);
      ("edges", Json.Int edges);
      ("tasks", Json.Int tasks);
    ]

let report_json r =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("alg", Json.String r.r_config.alg);
      ("seed", Json.Int r.r_config.seed);
      ("generations", Json.Int r.r_config.generations);
      ("population", Json.Int r.r_config.population);
      ("max_nodes", Json.Int r.r_config.max_nodes);
      ("max_tasks", Json.Int r.r_config.max_tasks);
      ("bound", Json.Float r.r_bound);
      ("evaluated", Json.Int r.evaluated);
      ("best_ratio", Json.Float (best_ratio r.hall_of_fame));
      ( "generations_log",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("generation", Json.Int l.g_index);
                   ("best_ratio", Json.Float l.g_best);
                   ("evaluated", Json.Int l.g_evaluated);
                   ("hof_size", Json.Int l.g_hof_size);
                 ])
             r.log) );
      ( "operators",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("op", Json.String s.os_name);
                   ("applied", Json.Int s.applied);
                   ("improved", Json.Int s.improved);
                 ])
             r.op_stats) );
      ( "hall_of_fame",
        Json.List (List.mapi scored_json r.hall_of_fame) );
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_hof ~dir r =
  mkdir_p dir;
  List.mapi
    (fun rank s ->
      let file = Printf.sprintf "hunt-hof-%s-%d.inst" r.r_config.alg rank in
      Sap_io.Instance_io.write_file
        (Filename.concat dir file)
        (instance_key s.instance);
      file)
    r.hall_of_fame

let pp_summary ppf r =
  Format.fprintf ppf "hunt %s: seed %d, %d generations x %d, bound %.2f@."
    r.r_config.alg r.r_config.seed r.r_config.generations r.r_config.population
    r.r_bound;
  Format.fprintf ppf "%-4s %10s %6s %4s@." "gen" "best" "evals" "hof";
  List.iter
    (fun l ->
      Format.fprintf ppf "%-4d %10.4f %6d %4d@." l.g_index l.g_best l.g_evaluated
        l.g_hof_size)
    r.log;
  Format.fprintf ppf "%-20s %8s %9s@." "operator" "applied" "improved";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-20s %8d %9d@." s.os_name s.applied s.improved)
    r.op_stats;
  Format.fprintf ppf "hall of fame (%d):@." (List.length r.hall_of_fame);
  List.iteri
    (fun rank s ->
      let edges, tasks, kind = instance_dims s.instance in
      Format.fprintf ppf
        "  #%d ratio %.4f (opt %.3f / alg %.3f) %s %de/%dt born g%d via %s@."
        rank s.ratio s.opt s.alg_weight kind edges tasks s.born s.op)
    r.hall_of_fame
