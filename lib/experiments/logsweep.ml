(* Parallel-WAL sweep: how many log streams does TPC-B want?  One WAL
   stream serializes every commit force behind one rendezvous and (with a
   log spindle) one disk arm.  With [log_streams = n] transactions are
   hash-assigned across n independent streams — n buffers, n force
   mutexes, n group-commit rendezvous, n spindles — at the price of
   vector-LSN dependency forces whenever a transaction touches a page
   last written under another stream.  This sweep measures where the
   extra arms beat the extra forces. *)

type point = {
  streams : int;
  mpl : int;
  run : Expcommon.tpcb_run;
  mean_commit_batch : float;
  forces : int;
  dep_checks : int;  (** cross-stream dependencies inspected at commit *)
  dep_forces : int;  (** ... of which actually forced another stream *)
  force_p99 : (string * float) list;
      (** per-stream force-latency p99 seconds: [("log", _)] for a single
          stream, else [("s0", _); ("s1", _); ...] *)
}

type t = {
  points : point list;
  scale : Tpcb.scale;
  txns : int;
  config : Config.t;
  setup : Txstack.backend;
}

let default_streams = [ 1; 2; 4 ]
let default_mpls = [ 8; 16 ]

let p99 stats key =
  match Stats.histo stats key with
  | Some h -> Histo.percentile h 0.99
  | None -> 0.0

let force_p99s stats streams =
  if streams <= 1 then [ ("log", p99 stats "log.force") ]
  else
    List.init streams (fun i ->
        let tag = Printf.sprintf "s%d" i in
        (tag, p99 stats (Printf.sprintf "log.%s.force" tag)))

let run ?(tps_scale = 2) ?(txns = 1_500) ?(seed = 1)
    ?(streams = default_streams) ?(mpls = default_mpls)
    ?(setup = Txstack.Lfs_user) () =
  (* The embedded manager has no WAL: the stream count would reach no
     code and every arm would measure the same run. *)
  if setup = Txstack.Lfs_kernel then
    invalid_arg "Logsweep.run: lfs-kernel has no write-ahead log";
  let base =
    Config.scaled ~factor:(float_of_int tps_scale /. 10.0) Config.default
  in
  (* Tellers/branches spread as in the MPL and disk sweeps (the official
     ratios leave them on single pages, and page contention would
     serialize any MPL above 1) — but unlike those sweeps the account
     relation is kept small enough to stay buffer-pool resident.  A
     disk-resident account working set makes TPC-B data-seek-bound and
     the log arm idles either way; parallel WAL is a remedy for the
     log-bound regime, so that is the regime the sweep measures. *)
  let scale = Cleanersweep.spread_scale tps_scale in
  let points =
    List.concat_map
      (fun ns ->
        List.map
          (fun mpl ->
            (* Every point gets the full multi-spindle treatment — two
               striped data disks plus one log spindle per stream — so
               the sweep isolates the log-stream count: the single-stream
               point is exactly the disksweep "2+log" placement.  Record
               grain keeps committers overlapped (page grain would
               serialize them on the history tail page); the group-commit
               rendezvous is per stream, so its size stays fixed rather
               than scaling with MPL/streams. *)
            let fs =
              {
                base.Config.fs with
                Config.ndisks = 2;
                log_disk = true;
                log_streams = ns;
                lock_grain = `Record;
                group_commit_size = 8;
                group_commit_timeout_s = 0.02;
              }
            in
            let cfg = { base with Config.fs } in
            let run =
              Expcommon.run_tpcb ~config:cfg ~scale ~txns ~seed ~mpl setup
            in
            let stats = run.Expcommon.stats in
            let mean_commit_batch =
              match Stats.histo stats "log.commit_batch" with
              | Some h -> Histo.mean h
              | None -> 0.0
            in
            {
              streams = ns;
              mpl;
              run;
              mean_commit_batch;
              forces = Stats.count stats "log.forces";
              dep_checks = Stats.count stats "log.dep_checks";
              dep_forces = Stats.count stats "log.dep_forces";
              force_p99 = force_p99s stats ns;
            })
          mpls)
      streams
  in
  { points; scale; txns; config = base; setup }

let point_json p =
  Json.Obj
    [
      ("streams", Json.Int p.streams);
      ("mpl", Json.Int p.mpl);
      ("tps", Json.Float p.run.Expcommon.result.Tpcb.tps);
      ("elapsed_s", Json.Float p.run.Expcommon.result.Tpcb.elapsed_s);
      ("txns", Json.Int p.run.Expcommon.result.Tpcb.txns);
      ("max_latency_s", Json.Float p.run.Expcommon.result.Tpcb.max_latency_s);
      ("mean_commit_batch", Json.Float p.mean_commit_batch);
      ("forces", Json.Int p.forces);
      ("dep_checks", Json.Int p.dep_checks);
      ("dep_forces", Json.Int p.dep_forces);
      ( "force_p99",
        Json.List
          (List.map
             (fun (stream, s) ->
               Json.Obj [ ("stream", Json.Str stream); ("p99_s", Json.Float s) ])
             p.force_p99) );
      ("lock_blocks", Json.Int p.run.Expcommon.lock_blocks);
      ("deadlocks", Json.Int p.run.Expcommon.deadlocks);
      ("restarts", Json.Int p.run.Expcommon.restarts);
      ("stats", Stats.to_json p.run.Expcommon.stats);
    ]

let to_json t =
  Json.Obj
    [
      ("figure", Json.Str "logsweep");
      ("setup", Json.Str (Txstack.name t.setup));
      ("scale", Expcommon.scale_json t.scale);
      ("txns", Json.Int t.txns);
      ("points", Json.List (List.map point_json t.points));
    ]

let print t =
  Expcommon.pp_header
    (Printf.sprintf
       "Parallel-WAL sweep: %s, TPC-B, %d accounts, %d txns per point"
       (Txstack.label t.setup)
       t.scale.Tpcb.accounts t.txns);
  Printf.printf "%7s %4s %8s %10s %8s %10s %10s  %s\n" "streams" "mpl" "TPS"
    "batch" "forces" "dep-force" "dep-check" "force p99 (ms)";
  List.iter
    (fun p ->
      let p99s =
        String.concat "  "
          (List.map
             (fun (stream, s) -> Printf.sprintf "%s=%.1f" stream (s *. 1000.0))
             p.force_p99)
      in
      Printf.printf "%7d %4d %8.2f %10.2f %8d %10d %10d  %s\n" p.streams p.mpl
        p.run.Expcommon.result.Tpcb.tps p.mean_commit_batch p.forces
        p.dep_forces p.dep_checks p99s)
    t.points;
  (* Headline: what 4 streams buy over 1 at the contended end. *)
  let find streams mpl =
    List.find_opt (fun p -> p.streams = streams && p.mpl = mpl) t.points
  in
  match (find 1 16, find 4 16) with
  | Some one, Some four ->
    Printf.printf "\nshape: MPL 16, 4 streams vs 1: %+.1f%% TPS\n"
      (100.0
      *. ((four.run.Expcommon.result.Tpcb.tps
           /. one.run.Expcommon.result.Tpcb.tps)
         -. 1.0))
  | _ -> ()

(* Parallel streams must pay off at the contended end (4 streams beat 1
   at MPL 16), and every point carries its per-stream force-latency
   p99. *)
let check =
  Expcommon.check_sweep ~name:"logsweep"
    ~fields:
      [
        "streams";
        "mpl";
        "tps";
        "mean_commit_batch";
        "dep_checks";
        "dep_forces";
        "force_p99";
      ]
    (fun points ->
      let num = Expcommon.num in
      let force_p99 p =
        match Json.member "force_p99" p with
        | Some (Json.List []) -> [ "logsweep: force_p99 empty" ]
        | Some (Json.List l) ->
          List.filter_map
            (fun entry ->
              if
                Json.member "stream" entry = None
                || Json.member "p99_s" entry = None
              then Some "logsweep: force_p99 entry missing stream/p99_s"
              else None)
            l
        | _ -> []
      in
      let at streams =
        Expcommon.find_point
          [ ("streams", Json.Int streams); ("mpl", Json.Int 16) ]
          points
      in
      List.concat_map force_p99 points
      @
      match (at 1, at 4) with
      | Some one, Some four when num "tps" four <= num "tps" one ->
        [
          Printf.sprintf
            "logsweep: TPS(4 streams) (%.2f) not above TPS(1 stream) (%.2f) \
             at MPL 16"
            (num "tps" four) (num "tps" one);
        ]
      | _ -> [])
