module Task = Core.Task
module Path = Core.Path
module Ring = Core.Ring
module Json = Obs.Json
module Exact_bb = Exact.Exact_bb

let schema = "sap-ratio v1"

let c_violations = Obs.Metrics.counter "lab.ratio.violations"

let c_disagreements = Obs.Metrics.counter "lab.ratio.disagreements"

type bound_kind = Exact_opt | Lp_opt

let bound_kind_to_string = function Exact_opt -> "exact" | Lp_opt -> "lp"

type measurement = {
  file : string;
  family : string;
  alg : string;
  subset_size : int;
  alg_weight : float;
  opt : float;
  bound_kind : bound_kind;
  ratio : float option;
  bound : float;
  within_bound : bool;
  brute_agrees : bool option;
  bb_nodes : int;
}

type summary_row = {
  s_alg : string;
  count : int;
  max_ratio : float option;
  mean_ratio : float option;
  exact_opts : int;
  lp_fallbacks : int;
  s_violations : int;
  worst_file : string option;
}

type family_row = {
  f_family : string;
  f_alg : string;
  f_count : int;
  f_max_ratio : float option;
  f_mean_ratio : float option;
  f_exact_opts : int;
  f_violations : int;
}

type report = {
  corpus_dir : string;
  corpus_seed : int;
  measurements : measurement list;
  summaries : summary_row list;
  families : family_row list;
  violations : int;
  disagreements : int;
}

(* ---------- the proven bounds, instantiated at the default config ---------- *)

let cfg = Sap.Combine.default_config

let eps = cfg.Sap.Combine.eps

(* The registry entries with a proven bound, in registry order. *)
let path_algs =
  List.filter (fun s -> s.Sap.Solvers.bound <> None) Sap.Solvers.all

let bound_of s = Option.get s.Sap.Solvers.bound

let ring_knapsack_eps = 0.1

(* Lemma 18: [1 + alpha + eps'], alpha the combination's bound. *)
let ring_bound =
  1.0 +. bound_of (Option.get (Sap.Solvers.find "combine")) +. ring_knapsack_eps

let bounds =
  List.map (fun s -> (s.Sap.Solvers.name, bound_of s)) path_algs
  @ [ ("ring", ring_bound) ]

(* ---------- the pinned runners ---------- *)

let path_solve s path ts =
  s.Sap.Solvers.solve ~seed:cfg.Sap.Combine.seed ~parallel:false path ts

let ring_solve r = Sap.Ring_algo.solve ~config:cfg ~knapsack_eps:ring_knapsack_eps r

(* ---------- one measurement ---------- *)

let ratio_of ~opt ~alg_weight =
  if alg_weight > 1e-9 then Some (opt /. alg_weight) else None

let within ~opt ~alg_weight ~bound =
  match ratio_of ~opt ~alg_weight with
  | Some r -> r <= bound +. 1e-9
  | None -> opt <= 1e-9 (* the algorithm scheduled nothing: fine iff OPT = 0 *)

(* One row: [alg]'s weight against the oracle's outcome [out] on its
   instance.  [brute], when the instance fits the exhaustive oracle,
   computes that oracle's value for the cross-check. *)
let measure ~entry ~alg ~bound ~subset_size ?brute alg_weight
    (out : _ Exact_bb.outcome) =
  let opt, bound_kind =
    if out.Exact_bb.optimal then (out.Exact_bb.value, Exact_opt)
    else (out.Exact_bb.upper_bound, Lp_opt)
  in
  let brute_agrees =
    match brute with
    | Some brute when out.Exact_bb.optimal ->
        Some (Float.abs (brute () -. out.Exact_bb.value) <= 1e-6)
    | _ -> None
  in
  {
    file = entry.Corpus.file;
    family = entry.Corpus.family;
    alg;
    subset_size;
    alg_weight;
    opt;
    bound_kind;
    ratio = ratio_of ~opt ~alg_weight;
    bound;
    within_bound =
      (match bound_kind with
      | Exact_opt -> within ~opt ~alg_weight ~bound
      | Lp_opt ->
          (* The upper bound over-estimates OPT, so exceeding the bound
             against it proves nothing; the gate only reads exact rows. *)
          true);
    brute_agrees;
    bb_nodes = out.Exact_bb.nodes;
  }

let measure_entry ?max_nodes ?jobs entry = function
  | Corpus.Path_instance (path, tasks) ->
      List.map
        (fun s ->
          let subset = Sap.Solvers.subset s path tasks in
          let alg_weight = Core.Solution.sap_weight (path_solve s path subset) in
          let brute =
            if List.length subset <= Exact.Sap_brute.task_cap then
              Some (fun () -> Exact.Sap_brute.value path subset)
            else None
          in
          measure ~entry ~alg:s.Sap.Solvers.name ~bound:(bound_of s)
            ~subset_size:(List.length subset) ?brute alg_weight
            (Exact_bb.solve ?max_nodes ?jobs path subset))
        path_algs
  | Corpus.Ring_instance r ->
      let alg_weight = Ring.solution_weight (ring_solve r) in
      let brute =
        if Array.length r.Ring.tasks <= Exact.Ring_brute.task_cap then
          Some (fun () -> Exact.Ring_brute.value r)
        else None
      in
      [
        measure ~entry ~alg:"ring" ~bound:ring_bound
          ~subset_size:(Array.length r.Ring.tasks) ?brute alg_weight
          (Exact_bb.solve_ring ?max_nodes r);
      ]
  (* ROUND-SAP entries are measured by Round_lab (rounds vs. a lower
     bound, not weight vs. OPT); in a mixed corpus they are simply not
     this pipeline's rows. *)
  | Corpus.Round_instance _ -> []

(* ---------- the runner ---------- *)

let summarise measurements =
  let algs =
    List.fold_left
      (fun acc m -> if List.mem m.alg acc then acc else acc @ [ m.alg ])
      [] measurements
  in
  List.map
    (fun alg ->
      let ms = List.filter (fun m -> m.alg = alg) measurements in
      (* Aggregate ratios over exact-oracle rows only.  An [Lp_opt] row's
         ratio is measured against an over-estimate of OPT, so letting it
         into max/mean — or ranking it "worst" — would misreport the
         empirical picture the lab exists to give. *)
      let ratios =
        List.filter_map
          (fun m ->
            match (m.bound_kind, m.ratio) with
            | Exact_opt, Some r -> Some (m, r)
            | _ -> None)
          ms
      in
      let worst =
        List.fold_left
          (fun acc (m, r) ->
            match acc with
            | Some (_, r') when r' >= r -> acc
            | _ -> Some (m, r))
          None ratios
      in
      {
        s_alg = alg;
        count = List.length ms;
        max_ratio = Option.map snd worst;
        mean_ratio =
          (match ratios with
          | [] -> None
          | _ ->
              Some
                (List.fold_left (fun a (_, r) -> a +. r) 0.0 ratios
                /. float_of_int (List.length ratios)));
        exact_opts =
          List.length (List.filter (fun m -> m.bound_kind = Exact_opt) ms);
        lp_fallbacks =
          List.length (List.filter (fun m -> m.bound_kind = Lp_opt) ms);
        s_violations =
          List.length (List.filter (fun m -> not m.within_bound) ms);
        worst_file = Option.map (fun (m, _) -> m.file) worst;
      })
    algs

let family_rows measurements =
  let distinct key ms =
    List.fold_left
      (fun acc m -> if List.mem (key m) acc then acc else acc @ [ key m ])
      [] ms
  in
  List.concat_map
    (fun family ->
      let fam = List.filter (fun m -> m.family = family) measurements in
      List.map
        (fun alg ->
          let ms = List.filter (fun m -> m.alg = alg) fam in
          (* Same discipline as [summarise]: only exact-oracle rows feed
             the ratio statistics. *)
          let ratios =
            List.filter_map
              (fun m ->
                match (m.bound_kind, m.ratio) with
                | Exact_opt, Some r -> Some r
                | _ -> None)
              ms
          in
          {
            f_family = family;
            f_alg = alg;
            f_count = List.length ms;
            f_max_ratio =
              List.fold_left
                (fun acc r ->
                  match acc with
                  | Some a -> Some (Float.max a r)
                  | None -> Some r)
                None ratios;
            f_mean_ratio =
              (match ratios with
              | [] -> None
              | _ ->
                  Some
                    (List.fold_left ( +. ) 0.0 ratios
                    /. float_of_int (List.length ratios)));
            f_exact_opts =
              List.length (List.filter (fun m -> m.bound_kind = Exact_opt) ms);
            f_violations =
              List.length (List.filter (fun m -> not m.within_bound) ms);
          })
        (distinct (fun m -> m.alg) fam))
    (distinct (fun m -> m.family) measurements)

let run ?max_nodes ?jobs (t : Corpus.t) =
  Obs.Trace.with_span "lab.ratio.run"
    ~attrs:[ ("corpus", t.Corpus.dir) ]
  @@ fun () ->
  let measurements =
    List.concat_map
      (fun entry ->
        match Corpus.read t entry with
        | Error msg ->
            invalid_arg
              (Printf.sprintf "Lab.Ratio: corpus entry %s: %s"
                 entry.Corpus.file msg)
        | Ok instance -> measure_entry ?max_nodes ?jobs entry instance)
      t.Corpus.entries
  in
  let violations =
    List.length (List.filter (fun m -> not m.within_bound) measurements)
  in
  let disagreements =
    List.length (List.filter (fun m -> m.brute_agrees = Some false) measurements)
  in
  for _ = 1 to violations do Obs.Metrics.incr c_violations done;
  for _ = 1 to disagreements do Obs.Metrics.incr c_disagreements done;
  {
    corpus_dir = t.Corpus.dir;
    corpus_seed = t.Corpus.seed;
    measurements;
    summaries = summarise measurements;
    families = family_rows measurements;
    violations;
    disagreements;
  }

(* ---------- JSON ---------- *)

let measurement_json m =
  Json.Obj
    [
      ("file", Json.String m.file);
      ("family", Json.String m.family);
      ("alg", Json.String m.alg);
      ("subset_size", Json.Int m.subset_size);
      ("alg_weight", Json.Float m.alg_weight);
      ("opt", Json.Float m.opt);
      ("bound_kind", Json.String (bound_kind_to_string m.bound_kind));
      ( "ratio",
        match m.ratio with Some r -> Json.Float r | None -> Json.Null );
      ("bound", Json.Float m.bound);
      ("within_bound", Json.Bool m.within_bound);
      ( "brute_agrees",
        match m.brute_agrees with Some b -> Json.Bool b | None -> Json.Null );
      ("bb_nodes", Json.Int m.bb_nodes);
    ]

let summary_json s =
  Json.Obj
    [
      ("alg", Json.String s.s_alg);
      ("count", Json.Int s.count);
      ( "max_ratio",
        match s.max_ratio with Some r -> Json.Float r | None -> Json.Null );
      ( "mean_ratio",
        match s.mean_ratio with Some r -> Json.Float r | None -> Json.Null );
      ("exact_opts", Json.Int s.exact_opts);
      ("lp_fallbacks", Json.Int s.lp_fallbacks);
      ("violations", Json.Int s.s_violations);
      ( "worst_file",
        match s.worst_file with Some f -> Json.String f | None -> Json.Null );
    ]

let family_json f =
  Json.Obj
    [
      ("family", Json.String f.f_family);
      ("alg", Json.String f.f_alg);
      ("count", Json.Int f.f_count);
      ( "max_ratio",
        match f.f_max_ratio with Some r -> Json.Float r | None -> Json.Null );
      ( "mean_ratio",
        match f.f_mean_ratio with Some r -> Json.Float r | None -> Json.Null );
      ("exact_opts", Json.Int f.f_exact_opts);
      ("violations", Json.Int f.f_violations);
    ]

let report_json r =
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "corpus",
        Json.Obj
          [
            ("dir", Json.String r.corpus_dir);
            ("seed", Json.Int r.corpus_seed);
            ("entries", Json.Int (List.length r.measurements));
          ] );
      ( "config",
        Json.Obj
          [
            ("eps", Json.Float eps);
            ("delta", Json.Float cfg.Sap.Combine.delta);
            ("beta", Json.Float cfg.Sap.Combine.beta);
            ("bounds", Json.Obj (List.map (fun (a, b) -> (a, Json.Float b)) bounds));
          ] );
      ("measurements", Json.List (List.map measurement_json r.measurements));
      ("summary", Json.List (List.map summary_json r.summaries));
      ("families", Json.List (List.map family_json r.families));
      ("violations", Json.Int r.violations);
      ("disagreements", Json.Int r.disagreements);
    ]

let pp_summary ppf r =
  Format.fprintf ppf "corpus %s (seed %d): %d measurements@."
    r.corpus_dir r.corpus_seed
    (List.length r.measurements);
  Format.fprintf ppf "%-8s %5s %9s %9s %7s %5s %4s  %s@." "alg" "count"
    "max" "mean" "bound" "exact" "lp" "worst";
  List.iter
    (fun s ->
      let fo = function Some r -> Printf.sprintf "%.4f" r | None -> "-" in
      Format.fprintf ppf "%-8s %5d %9s %9s %7.2f %5d %4d  %s@." s.s_alg
        s.count (fo s.max_ratio) (fo s.mean_ratio)
        (List.assoc s.s_alg bounds)
        s.exact_opts s.lp_fallbacks
        (Option.value ~default:"-" s.worst_file))
    r.summaries;
  Format.fprintf ppf "@.%-16s %-8s %5s %9s %9s %5s %4s@." "family" "alg"
    "count" "max" "mean" "exact" "viol";
  List.iter
    (fun f ->
      let fo = function Some r -> Printf.sprintf "%.4f" r | None -> "-" in
      Format.fprintf ppf "%-16s %-8s %5d %9s %9s %5d %4d@." f.f_family
        f.f_alg f.f_count (fo f.f_max_ratio) (fo f.f_mean_ratio)
        f.f_exact_opts f.f_violations)
    r.families;
  if r.violations > 0 then
    Format.fprintf ppf "BOUND VIOLATIONS: %d@." r.violations;
  if r.disagreements > 0 then
    Format.fprintf ppf "BB/BRUTE DISAGREEMENTS: %d@." r.disagreements
