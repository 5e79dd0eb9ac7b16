(* Multiprogramming-level sweep: the experiment the paper could not run.
   Section 4.4 concedes that at MPL 1 "group commit provides no benefit";
   with the discrete-event scheduler we can sweep MPL x group-commit
   configuration and watch the rendezvous start doing real work — batch
   sizes above 1, fewer log forces, and throughput that rises with MPL
   instead of paying the full timeout per transaction. *)

type point = {
  mpl : int;
  group_size : int;
  group_timeout_s : float;
  lock_grain : [ `Page | `Record ];
  run : Expcommon.tpcb_run;
  multi : Tpcb.multi_result;
  mean_batch : float;
  group_flushes : int;
  group_commit_wait_s : float;
  lock_wait_p99_s : float;
}

type t = {
  points : point list;
  legacy_mpl1 : (int * float * float) list;
      (* (group_size, group_timeout_s, tps) of the pre-refactor MPL-1
         driver under the same config — the epsilon reference. *)
  scale : Tpcb.scale;
  txns : int;
  config : Config.t;
  setup : Expcommon.setup;
}

let default_mpls = [ 1; 2; 4; 8; 16 ]
let default_grains = [ `Page; `Record ]
(* Timeouts are sized against the per-transaction service time (tens of
   milliseconds on the simulated disk): a timeout well below it never
   sees a second committer arrive. *)
let default_groups = [ (1, 0.0); (4, 0.05); (8, 0.1) ]

(* TPC-B's official ratios (10 tellers and 1 branch per TPS) leave the
   whole teller and branch relations on a single B-tree page at any
   scale this simulator can run, and page-grain 2PL holds those page
   locks through the commit flush — every transaction would serialize
   on them and no MPL could ever produce a commit batch above one. The
   sweep therefore spreads both hot relations across many pages (the
   concurrency analogue of the spec's "scale the database with the
   load" provision) while keeping the account relation at its official
   size. *)
let spread_scale tps =
  { Tpcb.accounts = 100_000 * tps; tellers = 200 * tps; branches = 200 * tps }

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

let grain_of_string = function
  | "page" -> `Page
  | "record" -> `Record
  | s -> invalid_arg ("Mplsweep: unknown lock grain " ^ s)

let batch_key = function
  | Expcommon.Lfs_kernel -> "ktxn.commit_batch"
  | Expcommon.Lfs_user | Expcommon.Readopt_user -> "log.commit_batch"

let flush_key = function
  | Expcommon.Lfs_kernel -> "ktxn.group_flushes"
  | Expcommon.Lfs_user | Expcommon.Readopt_user -> "log.forces"

let wait_key = function
  | Expcommon.Lfs_kernel -> "ktxn.group_commit_wait"
  | Expcommon.Lfs_user | Expcommon.Readopt_user -> "log.group_commit_wait"

let lock_wait_key = function
  | Expcommon.Lfs_kernel -> "ktxn.lock_wait"
  | Expcommon.Lfs_user | Expcommon.Readopt_user -> "txn.lock_wait"

(* Default setup is the user-level system: that is where record-grain
   locking changes transaction behaviour end to end (the embedded kernel
   manager keeps page-exclusive writes — its abort works by invalidating
   whole cached frames — and only relaxes read locks). *)
let run ?config ?(tps_scale = 2) ?(txns = 2_000) ?(seed = 1)
    ?(mpls = default_mpls) ?(groups = default_groups)
    ?(grains = default_grains) ?(setup = Expcommon.Lfs_user) () =
  let base =
    match config with
    | Some c -> c
    | None ->
      Config.scaled ~factor:(float_of_int tps_scale /. 10.0) Config.default
  in
  let scale = spread_scale tps_scale in
  let points =
    List.concat_map
      (fun grain ->
        List.concat_map
          (fun (gsize, gtimeout) ->
            let cfg = with_grain (with_group base (gsize, gtimeout)) grain in
            List.map
              (fun mpl ->
                let run, multi =
                  Expcommon.run_tpcb_mpl ~config:cfg ~scale ~txns ~seed ~mpl
                    setup
                in
                let stats = run.Expcommon.stats in
                let mean_batch =
                  match Stats.histo stats (batch_key setup) with
                  | Some h when Histo.count h > 0 -> Histo.mean h
                  | _ -> 1.0
                in
                let lock_wait_p99_s =
                  match Stats.histo stats (lock_wait_key setup) with
                  | Some h when Histo.count h > 0 -> Histo.percentile h 0.99
                  | _ -> 0.0
                in
                {
                  mpl;
                  group_size = gsize;
                  group_timeout_s = gtimeout;
                  lock_grain = grain;
                  run;
                  multi;
                  mean_batch;
                  group_flushes = Stats.count stats (flush_key setup);
                  group_commit_wait_s = Stats.time stats (wait_key setup);
                  lock_wait_p99_s;
                })
              mpls)
          groups)
      grains
  in
  (* Same configurations through the no-scheduler MPL-1 driver, for
     comparison with the scheduler's MPL-1 points. *)
  let legacy_mpl1 =
    List.map
      (fun (gsize, gtimeout) ->
        let cfg = with_group base (gsize, gtimeout) in
        let r = Expcommon.run_tpcb ~config:cfg ~scale ~txns ~seed setup in
        (gsize, gtimeout, r.Expcommon.result.Tpcb.tps))
      groups
  in
  { points; legacy_mpl1; scale; txns; config = base; setup }

let point_json p =
  Json.Obj
    [
      ("mpl", Json.Int p.mpl);
      ("group_size", Json.Int p.group_size);
      ("group_timeout_s", Json.Float p.group_timeout_s);
      ("lock_grain", Json.Str (grain_key p.lock_grain));
      ("tps", Json.Float p.run.Expcommon.result.Tpcb.tps);
      ("elapsed_s", Json.Float p.run.Expcommon.result.Tpcb.elapsed_s);
      ("txns", Json.Int p.run.Expcommon.result.Tpcb.txns);
      ("max_latency_s", Json.Float p.run.Expcommon.result.Tpcb.max_latency_s);
      ("mean_commit_batch", Json.Float p.mean_batch);
      ("group_flushes", Json.Int p.group_flushes);
      ("group_commit_wait_s", Json.Float p.group_commit_wait_s);
      ("lock_blocks", Json.Int p.multi.Tpcb.conflicts);
      ("lock_wait_p99_s", Json.Float p.lock_wait_p99_s);
      ("deadlocks", Json.Int p.multi.Tpcb.deadlocks);
      ("restarts", Json.Int p.multi.Tpcb.restarts);
      ("cleaner_stall_s", Json.Float p.run.Expcommon.cleaner_stall_s);
      ("stats", Stats.to_json p.run.Expcommon.stats);
    ]

let to_json t =
  Json.Obj
    [
      ("figure", Json.Str "mplsweep");
      ("setup", Json.Str (Expcommon.setup_key t.setup));
      ( "scale",
        Json.Obj
          [
            ("accounts", Json.Int t.scale.Tpcb.accounts);
            ("tellers", Json.Int t.scale.Tpcb.tellers);
            ("branches", Json.Int t.scale.Tpcb.branches);
          ] );
      ("txns", Json.Int t.txns);
      ("points", Json.List (List.map point_json t.points));
      ( "legacy_mpl1",
        Json.List
          (List.map
             (fun (gsize, gtimeout, tps) ->
               Json.Obj
                 [
                   ("group_size", Json.Int gsize);
                   ("group_timeout_s", Json.Float gtimeout);
                   ("tps", Json.Float tps);
                 ])
             t.legacy_mpl1) );
    ]

let print t =
  Expcommon.pp_header
    (Printf.sprintf
       "MPL sweep: %s, TPC-B, %d accounts, %d txns per point"
       (Expcommon.setup_label t.setup)
       t.scale.Tpcb.accounts t.txns);
  Printf.printf "%6s %4s %6s %10s %8s %10s %8s %8s %8s %9s\n" "grain" "mpl"
    "gsize" "timeout" "TPS" "mean" "flushes" "blocks" "dlocks" "gc wait";
  Printf.printf "%6s %4s %6s %10s %8s %10s %8s %8s %8s %9s\n" "" "" "" "(ms)"
    "" "batch" "" "" "" "(s)";
  List.iter
    (fun p ->
      Printf.printf "%6s %4d %6d %10.1f %8.2f %10.2f %8d %8d %8d %9.2f\n"
        (grain_key p.lock_grain) p.mpl p.group_size
        (1000.0 *. p.group_timeout_s)
        p.run.Expcommon.result.Tpcb.tps p.mean_batch p.group_flushes
        p.multi.Tpcb.conflicts p.multi.Tpcb.deadlocks p.group_commit_wait_s)
    t.points;
  Printf.printf "\nno-scheduler MPL-1 driver (reference):\n";
  List.iter
    (fun (gsize, gtimeout, tps) ->
      Printf.printf "  gsize %d timeout %.1fms: %.2f TPS\n" gsize
        (1000.0 *. gtimeout) tps)
    t.legacy_mpl1;
  (* Headline: does group commit do real work once MPL > 1, and does
     record granularity beat page granularity under contention? *)
  let find grain mpl gsize =
    List.find_opt
      (fun p -> p.lock_grain = grain && p.mpl = mpl && p.group_size = gsize)
      t.points
  in
  let first_grain =
    match t.points with [] -> `Page | p :: _ -> p.lock_grain
  in
  (match (find first_grain 1 8, find first_grain 8 8) with
  | Some p1, Some p8 ->
    Printf.printf
      "\nshape: gsize 8, MPL 8 vs MPL 1: %+.1f%% TPS (batch %.2f vs %.2f)\n"
      (100.0
      *. ((p8.run.Expcommon.result.Tpcb.tps
           /. p1.run.Expcommon.result.Tpcb.tps)
         -. 1.0))
      p8.mean_batch p1.mean_batch
  | _ -> ());
  match (find `Page 16 8, find `Record 16 8) with
  | Some pp, Some pr ->
    Printf.printf
      "shape: gsize 8, MPL 16, record vs page grain: %+.1f%% TPS\n"
      (100.0
      *. ((pr.run.Expcommon.result.Tpcb.tps /. pp.run.Expcommon.result.Tpcb.tps)
         -. 1.0))
  | _ -> ()
