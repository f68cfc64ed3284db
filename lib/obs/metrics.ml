let on = Atomic.make false

let enable () = Atomic.set on true

let disable () = Atomic.set on false

let enabled () = Atomic.get on

(* CAS loop: Atomic holds an immutable float; contention is rare (updates
   are cheap and domains touch different subsystems most of the time). *)
let rec fetch_and_apply cell f =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (f old)) then fetch_and_apply cell f

type counter = int Atomic.t

type gauge = float Atomic.t

(* Histograms carry exact count/sum/min/max plus fixed exponential
   ("log-bucketed") buckets for quantile estimation.  The bucket grid is
   global and static so summaries from different histograms (or different
   processes) merge by element-wise addition:

     bucket 0                    : v <= lo          (underflow)
     bucket k, 1 <= k <= regular : lo*g^(k-1) < v <= lo*g^k, g = 2^(1/4)
     bucket regular+1            : v > lo*g^regular (overflow)

   With lo = 1e-9 s and 177 regular buckets the grid spans one nanosecond
   to ~6.4 hours at <= 9.1% relative width per bucket — every latency this
   codebase measures lands in a regular bucket. *)
let bucket_lo = 1e-9

let buckets_per_octave = 4

let regular_buckets = 177

let bucket_count = regular_buckets + 2

let bucket_upper k =
  if k <= 0 then bucket_lo
  else if k > regular_buckets then infinity
  else bucket_lo *. Float.pow 2.0 (float_of_int k /. float_of_int buckets_per_octave)

let bucket_index v =
  if not (v > bucket_lo) (* catches <= lo and nan *) then 0
  else
    (* Clamp before the int conversion: [int_of_float infinity] is
       unspecified, and [v = infinity] must land in the overflow bucket. *)
    let k =
      Float.ceil (float_of_int buckets_per_octave *. Float.log2 (v /. bucket_lo))
    in
    if k < 1.0 then 1
    else if k > float_of_int regular_buckets then regular_buckets + 1
    else int_of_float k

(* Geometric midpoint of bucket [k]; callers clamp to the exact [min,max]. *)
let bucket_mid k =
  if k <= 0 then bucket_lo
  else if k > regular_buckets then infinity
  else
    bucket_lo
    *. Float.pow 2.0
         ((float_of_int k -. 0.5) /. float_of_int buckets_per_octave)

type histogram = {
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
  h_buckets : int Atomic.t array;
}

type cell =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

(* Registration is rare (module init); a single lock keeps it simple and
   domain-safe.  Updates never touch the registry. *)
let registry : (string, cell) Hashtbl.t = Hashtbl.create 64

let registry_lock = Mutex.create ()

let register name make describe =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some cell -> describe cell
      | None ->
          let fresh = make () in
          Hashtbl.replace registry name fresh;
          describe fresh)

let counter name =
  register name
    (fun () -> Counter (Atomic.make 0))
    (function
      | Counter c -> c
      | _ -> invalid_arg ("Metrics: " ^ name ^ " is not a counter"))

let gauge name =
  register name
    (fun () -> Gauge (Atomic.make 0.0))
    (function
      | Gauge g -> g
      | _ -> invalid_arg ("Metrics: " ^ name ^ " is not a gauge"))

let histogram name =
  register name
    (fun () ->
      Histogram
        {
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.0;
          h_min = Atomic.make infinity;
          h_max = Atomic.make neg_infinity;
          h_buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
        })
    (function
      | Histogram h -> h
      | _ -> invalid_arg ("Metrics: " ^ name ^ " is not a histogram"))

let incr c = if Atomic.get on then ignore (Atomic.fetch_and_add c 1)

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c n)

let counter_value c = Atomic.get c

let set g v = if Atomic.get on then Atomic.set g v

let gauge_value g = Atomic.get g

let observe h v =
  if Atomic.get on then begin
    ignore (Atomic.fetch_and_add h.h_count 1);
    fetch_and_apply h.h_sum (fun s -> s +. v);
    fetch_and_apply h.h_min (fun m -> Float.min m v);
    fetch_and_apply h.h_max (fun m -> Float.max m v);
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) 1)
  end

let time h f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Clock.monotonic_seconds () in
    Fun.protect ~finally:(fun () -> observe h (Clock.monotonic_seconds () -. t0)) f
  end

let reset () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      Hashtbl.iter
        (fun _ cell ->
          match cell with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g 0.0
          | Histogram h ->
              Atomic.set h.h_count 0;
              Atomic.set h.h_sum 0.0;
              Atomic.set h.h_min infinity;
              Atomic.set h.h_max neg_infinity;
              Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
        registry)

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
}

let empty_summary =
  {
    count = 0;
    sum = 0.0;
    min = Float.nan;
    max = Float.nan;
    buckets = Array.make bucket_count 0;
  }

let summary_observe s v =
  {
    count = s.count + 1;
    sum = s.sum +. v;
    min = (if s.count = 0 then v else Float.min s.min v);
    max = (if s.count = 0 then v else Float.max s.max v);
    buckets =
      (let b = Array.copy s.buckets in
       let i = bucket_index v in
       b.(i) <- b.(i) + 1;
       b);
  }

let summary_of_values vs =
  if Array.length vs = 0 then empty_summary
  else begin
    let buckets = Array.make bucket_count 0 in
    let sum = ref 0.0 and mn = ref vs.(0) and mx = ref vs.(0) in
    Array.iter
      (fun v ->
        sum := !sum +. v;
        if Float.min !mn v = v then mn := v;
        if Float.max !mx v = v then mx := v;
        let i = bucket_index v in
        buckets.(i) <- buckets.(i) + 1)
      vs;
    { count = Array.length vs; sum = !sum; min = !mn; max = !mx; buckets }
  end

let merge a b =
  if a.count = 0 then b
  else if b.count = 0 then a
  else
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      buckets = Array.init bucket_count (fun i -> a.buckets.(i) + b.buckets.(i));
    }

let quantile s q =
  if s.count = 0 then Float.nan
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    (* rank-based: the smallest value with at least ceil(q*count) values
       at or below it; rank 1 = min, rank count = max. *)
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int s.count)) in
      if r < 1 then 1 else if r > s.count then s.count else r
    in
    let idx = ref 0 and seen = ref 0 in
    (try
       for i = 0 to bucket_count - 1 do
         seen := !seen + s.buckets.(i);
         if !seen >= rank then begin
           idx := i;
           raise Exit
         end
       done;
       idx := bucket_count - 1
     with Exit -> ());
    (* The open-ended end buckets have no meaningful midpoint; report the
       exact extreme instead. *)
    let rep =
      if !idx = 0 then s.min
      else if !idx > regular_buckets then s.max
      else bucket_mid !idx
    in
    Float.max s.min (Float.min s.max rep)
  end

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      let counters = ref [] and gauges = ref [] and histograms = ref [] in
      Hashtbl.iter
        (fun name cell ->
          match cell with
          | Counter c -> counters := (name, Atomic.get c) :: !counters
          | Gauge g -> gauges := (name, Atomic.get g) :: !gauges
          | Histogram h ->
              let count = Atomic.get h.h_count in
              let summary =
                {
                  count;
                  sum = Atomic.get h.h_sum;
                  min = (if count = 0 then Float.nan else Atomic.get h.h_min);
                  max = (if count = 0 then Float.nan else Atomic.get h.h_max);
                  buckets = Array.map Atomic.get h.h_buckets;
                }
              in
              histograms := (name, summary) :: !histograms)
        registry;
      {
        counters = List.sort by_name !counters;
        gauges = List.sort by_name !gauges;
        histograms = List.sort by_name !histograms;
      })

let summary_json (h : histogram_summary) =
  let opt v = if h.count = 0 then Json.Null else Json.Float v in
  let q p = if h.count = 0 then Json.Null else Json.Float (quantile h p) in
  let sparse =
    let acc = ref [] in
    for i = bucket_count - 1 downto 0 do
      if h.buckets.(i) > 0 then
        acc := (string_of_int i, Json.Int h.buckets.(i)) :: !acc
    done;
    Json.Obj !acc
  in
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ( "mean",
        if h.count = 0 then Json.Null
        else Json.Float (h.sum /. float_of_int h.count) );
      ("min", opt h.min);
      ("max", opt h.max);
      ("p50", q 0.50);
      ("p90", q 0.90);
      ("p95", q 0.95);
      ("p99", q 0.99);
      ("buckets", sparse);
    ]

let summary_of_json j =
  let field name = match j with
    | Json.Obj kvs -> List.assoc_opt name kvs
    | _ -> None
  in
  let int_field name = match field name with
    | Some (Json.Int n) -> Some n
    | _ -> None
  in
  let float_field name = match field name with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  match int_field "count" with
  | None -> None
  | Some count ->
      let buckets = Array.make bucket_count 0 in
      (match field "buckets" with
      | Some (Json.Obj kvs) ->
          List.iter
            (fun (k, v) ->
              match (int_of_string_opt k, v) with
              | Some i, Json.Int n when i >= 0 && i < bucket_count ->
                  buckets.(i) <- n
              | _ -> ())
            kvs
      | _ -> ());
      Some
        {
          count;
          sum = Option.value ~default:0.0 (float_field "sum");
          min = Option.value ~default:Float.nan (float_field "min");
          max = Option.value ~default:Float.nan (float_field "max");
          buckets;
        }

let snapshot_json () =
  let s = snapshot () in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, summary_json h)) s.histograms) );
    ]
