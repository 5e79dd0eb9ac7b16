(* Unit and property tests for the simulation core: clock, stats, cost
   model, RNG and binary encoding. *)

let test_clock_basics () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Clock.now c);
  Clock.advance c 1.5;
  Clock.advance c 0.25;
  Alcotest.(check (float 1e-9)) "accumulates" 1.75 (Clock.now c);
  Clock.sleep_until c 1.0;
  Alcotest.(check (float 1e-9)) "sleep into the past is a no-op" 1.75
    (Clock.now c);
  Clock.sleep_until c 3.0;
  Alcotest.(check (float 1e-9)) "sleep into the future" 3.0 (Clock.now c)

let test_clock_rejects_bad_delta () =
  let c = Clock.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: bad delta -1")
    (fun () -> Clock.advance c (-1.0));
  (match Clock.advance c Float.nan with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "nan delta accepted")

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.bump_by s (Stats.counter "a") 4;
  Stats.add_to s (Stats.timer "t") 0.5;
  Stats.add_to s (Stats.timer "t") 0.25;
  Alcotest.(check int) "count" 5 (Stats.count s "a");
  Alcotest.(check (float 1e-9)) "time" 0.75 (Stats.time s "t");
  Alcotest.(check int) "missing count is 0" 0 (Stats.count s "nope");
  Stats.note_max s (Stats.maximum "m") 2.0;
  Stats.note_max s (Stats.maximum "m") 1.0;
  Alcotest.(check (float 1e-9)) "max keeps larger" 2.0 (Stats.max_of s "m");
  (* Maxima live in their own table: a cumulative time under the same key
     must not be polluted by (or pollute) the recorded maximum. *)
  Stats.add_to s (Stats.timer "m") 0.125;
  Alcotest.(check (float 1e-9)) "max unaffected by add_to" 2.0
    (Stats.max_of s "m");
  Alcotest.(check (float 1e-9)) "time unaffected by note_max" 0.125
    (Stats.time s "m");
  Stats.reset s;
  Alcotest.(check int) "reset" 0 (Stats.count s "a")

(* Histograms --------------------------------------------------------------- *)

let test_histo_basics () =
  let h = Histo.create () in
  Alcotest.(check int) "empty count" 0 (Histo.count h);
  Histo.add h 0.037;
  Alcotest.(check int) "count" 1 (Histo.count h);
  Alcotest.(check (float 1e-12)) "min" 0.037 (Histo.min_value h);
  Alcotest.(check (float 1e-12)) "max" 0.037 (Histo.max_value h);
  Alcotest.(check (float 1e-12)) "mean" 0.037 (Histo.mean h);
  (* Any percentile of a single sample is that sample (clamped to the
     exact tracked min/max, not the bucket bound). *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%.0f" p)
        0.037 (Histo.percentile h p))
    [ 0.0; 0.50; 0.95; 0.99; 1.0 ]

let test_histo_percentiles () =
  let h = Histo.create () in
  for _ = 1 to 90 do Histo.add h 0.001 done;
  for _ = 1 to 10 do Histo.add h 1.0 done;
  Alcotest.(check int) "count" 100 (Histo.count h);
  Alcotest.(check bool) "p50 in the low mode" true (Histo.percentile h 0.50 < 0.002);
  Alcotest.(check (float 1e-12)) "p99 is the high mode" 1.0 (Histo.percentile h 0.99);
  Alcotest.(check (float 1e-12)) "p100 = max" 1.0 (Histo.percentile h 1.0);
  (* Percentiles are monotone in p. *)
  let ps = [ 0.01; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99; 1.0 ] in
  let vs = List.map (Histo.percentile h) ps in
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "monotone" true (v >= prev);
         v)
       0.0 vs);
  (* Bucket counts account for every sample. *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Histo.buckets h) in
  Alcotest.(check int) "buckets sum to count" 100 total

let test_histo_outliers_and_merge () =
  let h = Histo.create () in
  Histo.add h (-1.0);
  (* invalid: dropped from the distribution, counted separately *)
  Histo.add h 1e9;
  (* overflow bucket *)
  Alcotest.(check int) "only the valid sample counted" 1 (Histo.count h);
  Alcotest.(check int) "negative counted as invalid" 1 (Histo.invalid h);
  Alcotest.(check (float 0.0)) "min is the valid sample" 1e9 (Histo.min_value h);
  Alcotest.(check (float 0.0)) "max exact" 1e9 (Histo.max_value h);
  let dst = Histo.create () in
  Histo.add dst 0.5;
  Histo.merge_into ~src:h ~dst;
  Alcotest.(check int) "merged count" 2 (Histo.count dst);
  Alcotest.(check int) "merged invalid" 1 (Histo.invalid dst);
  Alcotest.(check (float 0.0)) "merged max" 1e9 (Histo.max_value dst)

(* Regression: a stream polluted with NaN and negative samples used to be
   coerced to 0.0, inflating the first bucket and dragging every
   percentile toward zero. Now the distribution reflects only the valid
   samples and the pollution is tallied in [invalid] (and, through
   [Stats.observe_at], in the "histo.invalid" counter). *)
let test_histo_nan_stream () =
  let h = Histo.create () in
  for _ = 1 to 50 do
    Histo.add h Float.nan;
    Histo.add h (-0.5);
    Histo.add h Float.neg_infinity;
    Histo.add h 1.0
  done;
  Alcotest.(check int) "valid samples" 50 (Histo.count h);
  Alcotest.(check int) "invalid samples" 150 (Histo.invalid h);
  Alcotest.(check (float 1e-12)) "p50 undisturbed" 1.0 (Histo.percentile h 0.50);
  Alcotest.(check (float 1e-12)) "min undisturbed" 1.0 (Histo.min_value h);
  Alcotest.(check (float 1e-12)) "mean undisturbed" 1.0 (Histo.mean h);
  (* Every bucketed sample is a valid one. *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Histo.buckets h) in
  Alcotest.(check int) "buckets hold only valid samples" 50 total;
  (* The stats layer surfaces the same tally as a counter. *)
  let stats = Stats.create () in
  let lat = Stats.series "lat" in
  Stats.observe_at stats lat Float.nan;
  Stats.observe_at stats lat 0.25;
  Alcotest.(check int) "histo.invalid counter" 1 (Stats.count stats "histo.invalid");
  match Stats.histo stats "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "stats histo count" 1 (Histo.count h);
    Alcotest.(check int) "stats histo invalid" 1 (Histo.invalid h)

let prop_histo_percentile_bounded =
  Tutil.qtest "percentiles stay within [min, max]"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 100.0))
    (fun xs ->
      let h = Histo.create () in
      List.iter (Histo.add h) xs;
      List.for_all
        (fun p ->
          let v = Histo.percentile h p in
          v >= Histo.min_value h && v <= Histo.max_value h)
        [ 0.0; 0.10; 0.50; 0.90; 0.99; 1.0 ])

(* Discrete-event scheduler ------------------------------------------------- *)

let test_sched_ordering () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let log = ref [] in
  let emit tag = log := (tag, Clock.now clock) :: !log in
  Sched.spawn sched (fun () ->
      emit "a0";
      Sched.delay sched 2.0;
      emit "a2");
  Sched.spawn sched (fun () ->
      emit "b0";
      Sched.delay sched 1.0;
      emit "b1");
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (list (pair string (float 1e-9))))
    "time order; spawn order at t=0"
    [ ("a0", 0.0); ("b0", 0.0); ("b1", 1.0); ("a2", 2.0) ]
    (List.rev !log)

let test_sched_deterministic_ties () =
  (* Same-time events run in scheduling order, so a whole run replays
     identically. *)
  let one_run () =
    let clock = Clock.create () in
    let sched = Sched.create clock in
    let log = ref [] in
    for i = 1 to 5 do
      Sched.spawn sched (fun () ->
          Sched.delay sched 1.0;
          (* all five land at t=1.0 *)
          log := i :: !log;
          Sched.yield sched;
          log := (10 * i) :: !log)
    done;
    Sched.run sched;
    Sched.detach sched;
    List.rev !log
  in
  let a = one_run () in
  Alcotest.(check (list int))
    "ties break by schedule order" [ 1; 2; 3; 4; 5; 10; 20; 30; 40; 50 ] a;
  Alcotest.(check (list int)) "replay is identical" a (one_run ())

let test_sched_condition_fifo () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let cond = Sched.condition () in
  let order = ref [] in
  for i = 1 to 3 do
    Sched.spawn sched (fun () ->
        Sched.wait sched cond;
        order := i :: !order)
  done;
  Sched.spawn sched (fun () ->
      Sched.delay sched 1.0;
      Sched.signal sched cond;
      (* remaining two wake together *)
      Sched.broadcast sched cond);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3 ] (List.rev !order)

let test_sched_stalled_and_daemons () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let cond = Sched.condition () in
  Sched.spawn sched (fun () -> Sched.wait sched cond);
  Alcotest.check_raises "waiter with no signaller" (Sched.Stalled 1) (fun () ->
      Sched.run sched);
  Sched.detach sched;
  (* A daemon alone does not keep the scheduler alive. *)
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let ticks = ref 0 in
  Sched.spawn ~daemon:true sched (fun () ->
      while true do
        Sched.delay sched 1.0;
        incr ticks
      done);
  Sched.spawn sched (fun () -> Sched.delay sched 2.5);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check int) "daemon ran while foreground lived" 2 !ticks

(* Regression: under a scheduler, [Clock.sleep_until] must yield even
   when the deadline is already past — otherwise a same-time waiter
   (e.g. a group-commit timeout process) can be starved by a
   zero-length sleep. Without a scheduler it stays a no-op jump. *)
let test_sched_sleep_until_past_still_yields () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let log = ref [] in
  Sched.spawn sched (fun () ->
      Clock.advance clock 5.0;
      Clock.sleep_until clock 1.0;
      (* already past *)
      log := "sleeper" :: !log);
  Sched.spawn sched (fun () -> log := "other" :: !log);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (float 1e-9)) "time kept" 5.0 (Clock.now clock);
  Alcotest.(check (list string))
    "the other process ran before the sleeper resumed" [ "other"; "sleeper" ]
    (List.rev !log)

let test_sched_registry () =
  let c1 = Clock.create () and c2 = Clock.create () in
  let s1 = Sched.create c1 in
  Alcotest.(check bool) "found" true
    (match Sched.of_clock c1 with Some s -> s == s1 | None -> false);
  Alcotest.(check bool) "other clock unclaimed" true (Sched.of_clock c2 = None);
  Alcotest.(check bool) "outside any process" false (Sched.in_process s1);
  Sched.detach s1;
  Alcotest.(check bool) "detached" true (Sched.of_clock c1 = None)

(* JSON --------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "x\"y\\z\n");
        ("n", Json.Int (-42));
        ("f", Json.Float 3.25);
        ("tiny", Json.Float 1.25e-7);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Str "two"; Json.Float 0.5 ]);
        ("empty", Json.Obj []);
      ]
  in
  (match Json.of_string_opt (Json.to_string v) with
  | Some v' -> Alcotest.(check bool) "compact round-trip" true (v = v')
  | None -> Alcotest.fail "reparse failed");
  match Json.of_string_opt (Json.to_string_pretty v) with
  | Some v' -> Alcotest.(check bool) "pretty round-trip" true (v = v')
  | None -> Alcotest.fail "pretty reparse failed"

let test_json_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" s)
        true
        (Json.of_string_opt s = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{} trailing" ]

let test_json_member () =
  let v = Json.Obj [ ("a", Json.Int 1); ("b", Json.Obj [ ("c", Json.Str "x") ]) ] in
  Alcotest.(check bool) "member" true (Json.member "a" v = Some (Json.Int 1));
  Alcotest.(check bool) "missing" true (Json.member "z" v = None);
  Alcotest.(check bool) "nested" true
    (match Json.member "b" v with
    | Some b -> Json.member "c" b = Some (Json.Str "x")
    | None -> false)

(* Event trace -------------------------------------------------------------- *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.emit tr ~t:(float_of_int i) "ev" [ ("i", Trace.I i) ]
  done;
  Alcotest.(check int) "bounded" 4 (Trace.length tr);
  Alcotest.(check int) "dropped" 2 (Trace.dropped tr);
  (* Oldest two fell off; the survivors are in order. *)
  let ts = List.map (fun e -> e.Trace.t) (Trace.to_list tr) in
  Alcotest.(check (list (float 0.0))) "oldest first" [ 3.0; 4.0; 5.0; 6.0 ] ts;
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr)

let test_trace_jsonl_roundtrip () =
  let e =
    {
      Trace.t = 1.5;
      name = "disk.op";
      attrs =
        [
          ("rw", Trace.S "w");
          ("blkno", Trace.I 17);
          ("queued", Trace.B false);
          ("service_s", Trace.F 0.012);
        ];
    }
  in
  let line = Trace.to_json_line e in
  Alcotest.(check bool) "single line" true (not (String.contains line '\n'));
  (match Trace.of_json_line line with
  | Some e' ->
    Alcotest.(check (float 0.0)) "t" e.Trace.t e'.Trace.t;
    Alcotest.(check string) "name" e.Trace.name e'.Trace.name;
    Alcotest.(check bool) "attrs" true (e.Trace.attrs = e'.Trace.attrs)
  | None -> Alcotest.fail "reparse failed");
  Alcotest.(check bool) "garbage rejected" true (Trace.of_json_line "{oops" = None)

let test_stats_to_json () =
  let s = Stats.create () in
  Stats.incr s "ops";
  Stats.add_to s (Stats.timer "busy") 0.5;
  Stats.note_max s (Stats.maximum "peak") 2.0;
  Stats.observe_at s (Stats.series "lat") 0.01;
  let j = Stats.to_json s in
  let field k = match Json.member k j with Some v -> v | None -> Json.Null in
  Alcotest.(check bool) "counters" true
    (Json.member "ops" (field "counters") = Some (Json.Int 1));
  Alcotest.(check bool) "times" true
    (Json.member "busy" (field "times_s") = Some (Json.Float 0.5));
  Alcotest.(check bool) "maxes" true
    (Json.member "peak" (field "maxes_s") = Some (Json.Float 2.0));
  match Json.member "lat" (field "histograms") with
  | Some h ->
    Alcotest.(check bool) "histogram count" true
      (Json.member "count" h = Some (Json.Int 1));
    List.iter
      (fun k ->
        Alcotest.(check bool) (k ^ " present") true (Json.member k h <> None))
      [ "p50"; "p95"; "p99"; "max"; "buckets" ]
  | None -> Alcotest.fail "histogram missing from json"

(* Stats against a reference model: the string-keyed store Stats had
   before its keys became slots, four hash tables looked up by name on
   every update. Random operations run on two live instances and two
   models; after each step every report must agree. *)
module Model = struct
  type t = {
    counts : (string, int ref) Hashtbl.t;
    times : (string, float ref) Hashtbl.t;
    maxes : (string, float ref) Hashtbl.t;
    histos : (string, Histo.t) Hashtbl.t;
  }

  let create () =
    {
      counts = Hashtbl.create 8;
      times = Hashtbl.create 8;
      maxes = Hashtbl.create 8;
      histos = Hashtbl.create 8;
    }

  let cell tbl zero key =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref zero in
      Hashtbl.add tbl key r;
      r

  let add t key n =
    let r = cell t.counts 0 key in
    r := !r + n

  let add_time t key dt =
    let r = cell t.times 0.0 key in
    r := !r +. dt

  let record_max t key v =
    let r = cell t.maxes 0.0 key in
    if v > !r then r := v

  let get tbl zero key = match Hashtbl.find_opt tbl key with Some r -> !r | None -> zero

  let histo_cell t key =
    match Hashtbl.find_opt t.histos key with
    | Some h -> h
    | None ->
      let h = Histo.create () in
      Hashtbl.add t.histos key h;
      h

  let declare t key = ignore (histo_cell t key)

  let observe t key v =
    if not (Histo.is_valid v) then add t "histo.invalid" 1;
    Histo.add (histo_cell t key) v

  let histograms t =
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.histos []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let reset t =
    Hashtbl.reset t.counts;
    Hashtbl.reset t.times;
    Hashtbl.reset t.maxes;
    Hashtbl.reset t.histos

  let to_list t =
    let entries = ref [] in
    Hashtbl.iter (fun k r -> entries := (k, `Count !r) :: !entries) t.counts;
    Hashtbl.iter (fun k r -> entries := (k, `Seconds !r) :: !entries) t.times;
    Hashtbl.iter (fun k r -> entries := (k, `Max !r) :: !entries) t.maxes;
    List.sort (fun (a, _) (b, _) -> String.compare a b) !entries

  let to_json t =
    let sorted tbl f =
      Hashtbl.fold (fun k r acc -> (k, f r) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Json.Obj
      [
        ("counters", Json.Obj (sorted t.counts (fun r -> Json.Int !r)));
        ("times_s", Json.Obj (sorted t.times (fun r -> Json.Float !r)));
        ("maxes_s", Json.Obj (sorted t.maxes (fun r -> Json.Float !r)));
        ( "histograms",
          Json.Obj (List.map (fun (k, h) -> (k, Histo.to_json h)) (histograms t)) );
      ]
end

type kind = Counter | Timer | Maximum | Series

type stats_op =
  | Bump of int * int * bool  (* instance, key, by handle (else [incr]) *)
  | Bump_by of int * int * int
  | Add_to of int * int * float
  | Note_max of int * int * float
  | Observe of int * int * float
  | Declare of int * int
  | Reset of int
  | Fresh of int * kind * float  (* register a new key, update it *)

(* Every key collides across kinds; "histo.invalid" is also the counter
   [observe_at] bumps on an invalid sample. Key 4 is the newest [Fresh]
   key, registered after both instances were created. *)
let pool = [| "m"; "n"; "a.b"; "histo.invalid" |]
let fresh_keys = ref 0
let latest = ref "m"
let key_name k = if k < Array.length pool then pool.(k) else !latest

let stats_op_gen =
  let open QCheck2.Gen in
  let inst = int_bound 1 and key = int_bound 4 in
  let value =
    oneofl [ 0.0; 0.5; 1.25; 3.0; 1e-3; -1.0; Float.nan; Float.infinity ]
  in
  oneof
    [
      map3 (fun i k h -> Bump (i, k, h)) inst key bool;
      map3 (fun i k n -> Bump_by (i, k, n)) inst key (int_range (-3) 5);
      map3 (fun i k v -> Add_to (i, k, v)) inst key value;
      map3 (fun i k v -> Note_max (i, k, v)) inst key value;
      map3 (fun i k v -> Observe (i, k, v)) inst key value;
      map2 (fun i k -> Declare (i, k)) inst key;
      map (fun i -> Reset i) inst;
      map3 (fun i k v -> Fresh (i, k, v)) inst
        (oneofl [ Counter; Timer; Maximum; Series ])
        value;
    ]

let apply_stats_op stats models op =
  let key k = key_name k in
  match op with
  | Bump (i, k, h) ->
    if h then Stats.bump stats.(i) (Stats.counter (key k))
    else Stats.incr stats.(i) (key k);
    Model.add models.(i) (key k) 1
  | Bump_by (i, k, n) ->
    Stats.bump_by stats.(i) (Stats.counter (key k)) n;
    Model.add models.(i) (key k) n
  | Add_to (i, k, v) ->
    Stats.add_to stats.(i) (Stats.timer (key k)) v;
    Model.add_time models.(i) (key k) v
  | Note_max (i, k, v) ->
    Stats.note_max stats.(i) (Stats.maximum (key k)) v;
    Model.record_max models.(i) (key k) v
  | Observe (i, k, v) ->
    Stats.observe_at stats.(i) (Stats.series (key k)) v;
    Model.observe models.(i) (key k) v
  | Declare (i, k) ->
    Stats.declare_at stats.(i) (Stats.series (key k));
    Model.declare models.(i) (key k)
  | Reset i ->
    Stats.reset stats.(i);
    Model.reset models.(i)
  | Fresh (i, kind, v) ->
    incr fresh_keys;
    let name = Printf.sprintf "fresh.%d" !fresh_keys in
    latest := name;
    let s = stats.(i) and m = models.(i) in
    (match kind with
    | Counter ->
      Stats.bump s (Stats.counter name);
      Model.add m name 1
    | Timer ->
      Stats.add_to s (Stats.timer name) v;
      Model.add_time m name v
    | Maximum ->
      Stats.note_max s (Stats.maximum name) v;
      Model.record_max m name v
    | Series ->
      Stats.observe_at s (Stats.series name) v;
      Model.observe m name v)

(* Structural equality that treats NaN as equal to itself. *)
let same a b = compare a b = 0

let agrees s m =
  let histos hs = List.map (fun (k, h) -> (k, Histo.to_json h)) hs in
  let keys = "never.registered" :: !latest :: Array.to_list pool in
  same (Stats.to_list s) (Model.to_list m)
  && same (Stats.to_json s) (Model.to_json m)
  && same (histos (Stats.histograms s)) (histos (Model.histograms m))
  && List.for_all
       (fun k ->
         Stats.count s k = Model.get m.Model.counts 0 k
         && same (Stats.time s k) (Model.get m.Model.times 0.0 k)
         && same (Stats.max_of s k) (Model.get m.Model.maxes 0.0 k)
         && same
              (Option.map Histo.to_json (Stats.histo s k))
              (Option.map Histo.to_json (Hashtbl.find_opt m.Model.histos k)))
       keys

let prop_stats_model =
  Tutil.qtest ~count:300 "matches the by-name model"
    QCheck2.Gen.(list_size (int_range 1 40) stats_op_gen)
    (fun ops ->
      let stats = [| Stats.create (); Stats.create () |] in
      let models = [| Model.create (); Model.create () |] in
      List.for_all
        (fun op ->
          apply_stats_op stats models op;
          agrees stats.(0) models.(0) && agrees stats.(1) models.(1))
        ops)

let test_stats_handle_survives_reset () =
  let k = Stats.counter "unit.reset" and h = Stats.series "unit.reset" in
  let s = Stats.create () in
  Stats.bump s k;
  Stats.observe_at s h 0.5;
  Stats.reset s;
  Alcotest.(check int) "zeroed" 0 (Stats.count s "unit.reset");
  Alcotest.(check bool) "histogram gone" true (Stats.histo s "unit.reset" = None);
  Stats.bump s k;
  Stats.observe_at s h 0.5;
  Alcotest.(check int) "counts after reset" 1 (Stats.count s "unit.reset");
  Alcotest.(check bool) "listed after reset" true
    (List.mem ("unit.reset", `Count 1) (Stats.to_list s));
  match Stats.histo s "unit.reset" with
  | Some h -> Alcotest.(check int) "samples after reset" 1 (Histo.count h)
  | None -> Alcotest.fail "histogram missing after reset"

let test_stats_instances_isolated () =
  let a = Stats.create () and b = Stats.create () in
  let k = Stats.counter "unit.isolated" and tm = Stats.timer "unit.isolated" in
  Stats.bump a k;
  Stats.add_to b tm 0.25;
  Alcotest.(check int) "a counts" 1 (Stats.count a "unit.isolated");
  Alcotest.(check int) "b does not" 0 (Stats.count b "unit.isolated");
  Alcotest.(check (float 0.0)) "a has no time" 0.0 (Stats.time a "unit.isolated");
  Alcotest.(check bool) "a lists only its counter" true
    (Stats.to_list a = [ ("unit.isolated", `Count 1) ]);
  Alcotest.(check bool) "b lists only its time" true
    (Stats.to_list b = [ ("unit.isolated", `Seconds 0.25) ])

let test_cpu_charges () =
  let cfg = Config.default.Config.cpu in
  let clock = Clock.create () in
  let stats = Stats.create () in
  Cpu.charge clock stats cfg Cpu.Syscall;
  Alcotest.(check (float 1e-12)) "syscall advances clock" cfg.Config.syscall_s
    (Clock.now clock);
  Alcotest.(check int) "recorded" 1 (Stats.count stats "cpu.syscall.n")

(* Each kind charges its own time and count keys: the key names are the
   schema of every artifact's [cpu.*] block. *)
let test_cpu_keys () =
  let cfg = Config.default.Config.cpu in
  List.iter
    (fun (kind, key) ->
      let stats = Stats.create () in
      Cpu.charge (Clock.create ()) stats cfg kind;
      Alcotest.(check bool) key true
        (Stats.to_list stats
        = [ (key, `Seconds (Cpu.cost cfg kind)); (key ^ ".n", `Count 1) ]))
    Cpu.
      [
        (Syscall, "cpu.syscall");
        (Context_switch, "cpu.context_switch");
        (User_mutex, "cpu.user_mutex");
        (Kernel_mutex, "cpu.kernel_mutex");
        (Copy_block, "cpu.copy_block");
        (Buffer_lookup, "cpu.buffer_lookup");
        (Protection_check, "cpu.protection_check");
        (Record_op, "cpu.record_op");
        (Cursor_next, "cpu.cursor_next");
        (Lock_op, "cpu.lock_op");
        (Log_record, "cpu.log_record");
        (File_op, "cpu.file_op");
        (Compile_unit, "cpu.compile_unit");
      ]

let test_user_mutex_cost () =
  let cpu = Config.default.Config.cpu in
  let without = Cpu.cost cpu Cpu.User_mutex in
  let with_tas = Cpu.cost { cpu with Config.has_test_and_set = true } Cpu.User_mutex in
  Alcotest.(check (float 1e-12)) "no TAS: two syscalls"
    (2.0 *. cpu.Config.syscall_s) without;
  Alcotest.(check bool) "TAS much cheaper" true (with_tas < without /. 10.0)

let test_config_scaled () =
  let c = Config.scaled ~factor:0.5 Config.default in
  Alcotest.(check int) "disk halved" (Config.default.Config.disk.nblocks / 2)
    c.Config.disk.nblocks;
  Alcotest.(check int) "cache halved" (Config.default.Config.fs.cache_blocks / 2)
    c.Config.fs.cache_blocks;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Config.scaled: factor must be in (0, 1]") (fun () ->
      ignore (Config.scaled ~factor:0.0 Config.default))

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create ~seed:43 in
  let zs = List.init 100 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_shuffle_is_permutation () =
  let r = Rng.create ~seed:7 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_enc_fixed_width () =
  let b = Bytes.make 64 '\000' in
  Enc.set_u8 b 0 0xab;
  Enc.set_u16 b 1 0xbeef;
  Enc.set_u32 b 3 0xdeadbeef;
  Enc.set_i64 b 7 (-123456789L);
  Enc.set_f64 b 15 3.14159;
  Alcotest.(check int) "u8" 0xab (Enc.get_u8 b 0);
  Alcotest.(check int) "u16" 0xbeef (Enc.get_u16 b 1);
  Alcotest.(check int) "u32" 0xdeadbeef (Enc.get_u32 b 3);
  Alcotest.(check int64) "i64" (-123456789L) (Enc.get_i64 b 7);
  Alcotest.(check (float 0.0)) "f64" 3.14159 (Enc.get_f64 b 15)

let test_enc_u32_range () =
  let b = Bytes.make 8 '\000' in
  Alcotest.(check bool) "max u32 fits" true
    (Enc.set_u32 b 0 0xffffffff;
     Enc.get_u32 b 0 = 0xffffffff);
  (match Enc.set_u32 b 0 (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative accepted")

(* The entry codec round-trips and writes exactly [entry_size] bytes,
   laid out as u16 klen | u16 vlen | key | value. *)
let prop_entry_roundtrip =
  let str = QCheck2.Gen.(string_size (int_bound 300)) in
  Tutil.qtest "entry round-trip" QCheck2.Gen.(pair str str) (fun (k, v) ->
      let size = Enc.entry_size k v in
      let b = Bytes.make (size + 8) '\255' in
      let stop = Enc.set_entry b 4 k v in
      let lens = Bytes.create 4 in
      Bytes.set_uint16_be lens 0 (String.length k);
      Bytes.set_uint16_be lens 2 (String.length v);
      let pad = String.make 4 '\255' in
      Enc.get_entry b 4 = (k, v)
      && stop = 4 + size
      && Bytes.to_string b = String.concat "" [ pad; Bytes.to_string lens; k; v; pad ])

let prop_u32_roundtrip =
  Tutil.qtest "u32 round-trip" QCheck2.Gen.(int_bound 0xffffffff) (fun v ->
      let b = Bytes.make 4 '\000' in
      Enc.set_u32 b 0 v;
      Enc.get_u32 b 0 = v)

let () =
  Alcotest.run "tx_sim"
    [
      ( "clock",
        [
          Alcotest.test_case "basics" `Quick test_clock_basics;
          Alcotest.test_case "bad delta" `Quick test_clock_rejects_bad_delta;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats;
          Alcotest.test_case "to_json" `Quick test_stats_to_json;
          Alcotest.test_case "handle survives reset" `Quick
            test_stats_handle_survives_reset;
          Alcotest.test_case "instances isolated" `Quick
            test_stats_instances_isolated;
          prop_stats_model;
        ] );
      ( "histo",
        [
          Alcotest.test_case "basics" `Quick test_histo_basics;
          Alcotest.test_case "percentiles" `Quick test_histo_percentiles;
          Alcotest.test_case "outliers/merge" `Quick test_histo_outliers_and_merge;
          Alcotest.test_case "nan stream dropped" `Quick test_histo_nan_stream;
          prop_histo_percentile_bounded;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring" `Quick test_trace_ring;
          Alcotest.test_case "jsonl roundtrip" `Quick test_trace_jsonl_roundtrip;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "charges" `Quick test_cpu_charges;
          Alcotest.test_case "keys per kind" `Quick test_cpu_keys;
          Alcotest.test_case "user mutex" `Quick test_user_mutex_cost;
        ] );
      ("config", [ Alcotest.test_case "scaled" `Quick test_config_scaled ]);
      ( "sched",
        [
          Alcotest.test_case "ordering" `Quick test_sched_ordering;
          Alcotest.test_case "deterministic ties" `Quick
            test_sched_deterministic_ties;
          Alcotest.test_case "condition fifo" `Quick test_sched_condition_fifo;
          Alcotest.test_case "stalled / daemons" `Quick
            test_sched_stalled_and_daemons;
          Alcotest.test_case "sleep into the past yields" `Quick
            test_sched_sleep_until_past_still_yields;
          Alcotest.test_case "registry" `Quick test_sched_registry;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_is_permutation;
        ] );
      ( "enc",
        [
          Alcotest.test_case "fixed width" `Quick test_enc_fixed_width;
          Alcotest.test_case "u32 range" `Quick test_enc_u32_range;
          prop_entry_roundtrip;
          prop_u32_roundtrip;
        ] );
    ]
