(* Multiprogramming-level sweep: the experiment the paper could not run.
   Section 4.4 concedes that at MPL 1 "group commit provides no benefit";
   with the discrete-event scheduler we can sweep MPL x group-commit
   configuration and watch the rendezvous start doing real work — batch
   sizes above 1, fewer log forces, and throughput that rises with MPL
   instead of paying the full timeout per transaction. *)

let default_mpls = [ 1; 2; 4; 8; 16 ]
let default_grains = [ `Page; `Record ]
(* Timeouts are sized against the per-transaction service time (tens of
   milliseconds on the simulated disk): a timeout well below it never
   sees a second committer arrive. *)
let default_groups = [ (1, 0.0); (4, 0.05); (8, 0.1) ]

let with_group config (size, timeout) =
  let fs =
    {
      config.Config.fs with
      Config.group_commit_size = size;
      group_commit_timeout_s = timeout;
    }
  in
  { config with Config.fs }

let with_grain config grain =
  { config with Config.fs = { config.Config.fs with Config.lock_grain = grain } }

let grain_key = function `Page -> "page" | `Record -> "record"

let batch_key = function
  | Txstack.Lfs_kernel -> "ktxn.commit_batch"
  | Txstack.Lfs_user | Txstack.Ffs_user -> "log.commit_batch"

let flush_key = function
  | Txstack.Lfs_kernel -> "ktxn.group_flushes"
  | Txstack.Lfs_user | Txstack.Ffs_user -> "log.forces"

let wait_key = function
  | Txstack.Lfs_kernel -> "ktxn.group_commit_wait"
  | Txstack.Lfs_user | Txstack.Ffs_user -> "log.group_commit_wait"

let lock_wait_key = function
  | Txstack.Lfs_kernel -> "ktxn.lock_wait"
  | Txstack.Lfs_user | Txstack.Ffs_user -> "txn.lock_wait"

(* Default setup is the user-level system: that is where record-grain
   locking changes transaction behaviour end to end (the embedded kernel
   manager keeps page-exclusive writes — its abort works by invalidating
   whole cached frames — and only relaxes read locks). *)
let run ?config ?(tps_scale = 2) ?(txns = 2_000) ?(seed = 1)
    ?(mpls = default_mpls) ?(groups = default_groups)
    ?(grains = default_grains) ?(setup = Txstack.Lfs_user) () =
  let base = Expcommon.tps_config ?config tps_scale in
  let scale = Expcommon.spread_scale tps_scale in
  let point grain (gsize, gtimeout) mpl =
    let cfg = with_grain (with_group base (gsize, gtimeout)) grain in
    let run = Expcommon.run_tpcb ~config:cfg ~scale ~txns ~seed ~mpl setup in
    let stats = run.Expcommon.stats in
    let mean_batch =
      match Stats.histo stats (batch_key setup) with
      | Some h when Histo.count h > 0 -> Histo.mean h
      | _ -> 1.0
    in
    Json.Obj
      ([
         ("mpl", Json.Int mpl);
         ("group_size", Json.Int gsize);
         ("group_timeout_s", Json.Float gtimeout);
         ("lock_grain", Json.Str (grain_key grain));
       ]
      @ Expcommon.run_fields run
      @ [
          ("mean_commit_batch", Json.Float mean_batch);
          ("group_flushes", Json.Int (Stats.count stats (flush_key setup)));
          ("group_commit_wait_s", Json.Float (Stats.time stats (wait_key setup)));
          ( "lock_wait_p99_s",
            Json.Float (Expcommon.p99 stats (lock_wait_key setup)) );
        ])
  in
  (* The same configurations through the no-scheduler MPL-1 driver, for
     comparison with the scheduler's MPL-1 points. *)
  let legacy_mpl1 (gsize, gtimeout) =
    let cfg = with_group base (gsize, gtimeout) in
    let r = Expcommon.run_tpcb ~config:cfg ~scale ~txns ~seed setup in
    Json.Obj
      [
        ("group_size", Json.Int gsize);
        ("group_timeout_s", Json.Float gtimeout);
        ("tps", Json.Float r.Expcommon.result.Tpcb.tps);
      ]
  in
  let points =
    List.concat_map
      (fun grain ->
        List.concat_map (fun group -> List.map (point grain group) mpls) groups)
      grains
  in
  let legacy = List.map legacy_mpl1 groups in
  Expcommon.sweep_data ~name:"mplsweep" ~setup ~scale ~txns
    ~extra:[ ("legacy_mpl1", Json.List legacy) ]
    points

let print data =
  let num = Expcommon.num and str = Expcommon.str in
  let points = Expcommon.points data in
  Expcommon.pp_sweep_header "MPL sweep" data;
  Printf.printf "%6s %4s %6s %10s %8s %10s %8s %8s %8s %9s\n" "grain" "mpl"
    "gsize" "timeout" "TPS" "mean" "flushes" "blocks" "dlocks" "gc wait";
  Printf.printf "%6s %4s %6s %10s %8s %10s %8s %8s %8s %9s\n" "" "" "" "(ms)"
    "" "batch" "" "" "" "(s)";
  List.iter
    (fun p ->
      Printf.printf
        "%6s %4.0f %6.0f %10.1f %8.2f %10.2f %8.0f %8.0f %8.0f %9.2f\n"
        (str "lock_grain" p) (num "mpl" p) (num "group_size" p)
        (1000.0 *. num "group_timeout_s" p)
        (num "tps" p) (num "mean_commit_batch" p) (num "group_flushes" p)
        (num "lock_blocks" p) (num "deadlocks" p) (num "group_commit_wait_s" p))
    points;
  Printf.printf "\nno-scheduler MPL-1 driver (reference):\n";
  List.iter
    (fun l ->
      Printf.printf "  gsize %.0f timeout %.1fms: %.2f TPS\n" (num "group_size" l)
        (1000.0 *. num "group_timeout_s" l)
        (num "tps" l))
    (Expcommon.points ~key:"legacy_mpl1" data);
  (* Headline: does group commit do real work once MPL > 1, and does
     record granularity beat page granularity under contention? *)
  let find grain mpl =
    Expcommon.find_point
      [
        ("lock_grain", Json.Str grain);
        ("mpl", Json.Int mpl);
        ("group_size", Json.Int 8);
      ]
      points
  in
  let first_grain =
    match points with [] -> "page" | p :: _ -> str "lock_grain" p
  in
  (match (find first_grain 1, find first_grain 8) with
  | Some p1, Some p8 ->
    Printf.printf
      "\nshape: gsize 8, MPL 8 vs MPL 1: %+.1f%% TPS (batch %.2f vs %.2f)\n"
      (100.0 *. ((num "tps" p8 /. num "tps" p1) -. 1.0))
      (num "mean_commit_batch" p8)
      (num "mean_commit_batch" p1)
  | _ -> ());
  match (find "page" 16, find "record" 16) with
  | Some pp, Some pr ->
    Printf.printf "shape: gsize 8, MPL 16, record vs page grain: %+.1f%% TPS\n"
      (100.0 *. ((num "tps" pr /. num "tps" pp) -. 1.0))
  | _ -> ()

(* Group commit must demonstrably batch once MPL and group size allow
   it; at the same group size and lock grain MPL 8 must beat MPL 1; and
   where both grains were swept, record must out-run page at MPL 16 (the
   contention end of the sweep) — that is the point of hierarchical
   locking. *)
let check =
  Expcommon.check_sweep ~name:"mplsweep"
    ~fields:
      [
        "mpl";
        "group_size";
        "group_timeout_s";
        "lock_grain";
        "tps";
        "mean_commit_batch";
        "group_flushes";
        "lock_wait_p99_s";
      ]
    (fun points ->
      let num = Expcommon.num in
      let batching_possible =
        List.exists
          (fun p -> num "mpl" p > 1.0 && num "group_size" p > 1.0)
          points
      in
      let max_batch =
        List.fold_left
          (fun acc p -> Float.max acc (num "mean_commit_batch" p))
          0.0 points
      in
      let batching =
        if batching_possible && max_batch <= 1.0 then
          [
            "mplsweep: no point achieved a mean commit batch > 1 despite MPL \
             > 1 and group size > 1";
          ]
        else []
      in
      (* Every [w] must out-run every [l] that agrees with it on [same]. *)
      let must_beat ~same w_ok l_ok msg =
        List.concat_map
          (fun w ->
            List.filter_map
              (fun l ->
                if
                  w_ok w && l_ok l
                  && List.for_all (fun k -> Json.member k w = Json.member k l) same
                  && num "tps" w <= num "tps" l
                then Some (msg (num "tps" w) (num "tps" l) (num "group_size" w))
                else None)
              points)
          points
      in
      let at mpl grain =
        Expcommon.matches [ ("mpl", Json.Int mpl); ("lock_grain", Json.Str grain) ]
      in
      batching
      @ must_beat ~same:[ "group_size"; "lock_grain" ]
          (fun p -> num "mpl" p = 8.0 && num "group_size" p > 1.0)
          (fun p -> num "mpl" p = 1.0)
          (Printf.sprintf
             "mplsweep: TPS at MPL 8 (%.2f) not above MPL 1 (%.2f) for group \
              size %g")
      @ must_beat ~same:[ "group_size" ] (at 16 "record") (at 16 "page")
          (Printf.sprintf
             "mplsweep: record-grain TPS at MPL 16 (%.2f) not above page grain \
              (%.2f) for group size %g"))
