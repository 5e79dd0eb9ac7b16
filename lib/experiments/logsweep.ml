(* Parallel-WAL sweep: how many log streams does TPC-B want?  One WAL
   stream serializes every commit force behind one rendezvous and (with a
   log spindle) one disk arm.  With [log_streams = n] transactions are
   hash-assigned across n independent streams — n buffers, n force
   mutexes, n group-commit rendezvous, n spindles — at the price of
   vector-LSN dependency forces whenever a transaction touches a page
   last written under another stream.  This sweep measures where the
   extra arms beat the extra forces. *)

let default_streams = [ 1; 2; 4 ]
let default_mpls = [ 8; 16 ]

let run ?(tps_scale = 2) ?(txns = 1_500) ?(seed = 1)
    ?(streams = default_streams) ?(mpls = default_mpls)
    ?(setup = Txstack.Lfs_user) () =
  (* The embedded manager has no WAL: the stream count would reach no
     code and every arm would measure the same run. *)
  if setup = Txstack.Lfs_kernel then
    invalid_arg "Logsweep.run: lfs-kernel has no write-ahead log";
  let base = Expcommon.tps_config tps_scale in
  (* Tellers/branches spread as in the MPL and disk sweeps (the official
     ratios leave them on single pages, and page contention would
     serialize any MPL above 1) — but unlike those sweeps the account
     relation is kept small enough to stay buffer-pool resident.  A
     disk-resident account working set makes TPC-B data-seek-bound and
     the log arm idles either way; parallel WAL is a remedy for the
     log-bound regime, so that is the regime the sweep measures. *)
  let scale = Expcommon.compact_scale tps_scale in
  let point ns mpl =
    (* Every point gets the full multi-spindle treatment — two striped
       data disks plus one log spindle per stream — so the sweep
       isolates the log-stream count: the single-stream point is
       exactly the disksweep "2+log" placement.  Record grain keeps
       committers overlapped (page grain would serialize them on the
       history tail page); the group-commit rendezvous is per stream,
       so its size stays fixed rather than scaling with MPL/streams. *)
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
    let run = Expcommon.run_tpcb ~config:cfg ~scale ~txns ~seed ~mpl setup in
    let stats = run.Expcommon.stats in
    (* Per-stream force-latency p99: "log" for a single stream, else
       "s0", "s1", ... *)
    let force_p99 (stream, key) =
      Json.Obj
        [
          ("stream", Json.Str stream);
          ("p99_s", Json.Float (Expcommon.p99 stats key));
        ]
    in
    Json.Obj
      ([ ("streams", Json.Int ns); ("mpl", Json.Int mpl) ]
      @ Expcommon.run_fields run
      @ [
          ( "mean_commit_batch",
            Json.Float
              (match Stats.histo stats "log.commit_batch" with
              | Some h -> Histo.mean h
              | None -> 0.0) );
          ("forces", Json.Int (Stats.count stats "log.forces"));
          ("dep_checks", Json.Int (Stats.count stats "log.dep_checks"));
          ("dep_forces", Json.Int (Stats.count stats "log.dep_forces"));
          ( "force_p99",
            Json.List
              (List.map force_p99
                 (if ns <= 1 then [ ("log", "log.force") ]
                  else
                    List.init ns (fun i ->
                        let tag = Printf.sprintf "s%d" i in
                        (tag, Printf.sprintf "log.%s.force" tag)))) );
        ])
  in
  Expcommon.sweep_data ~name:"logsweep" ~setup ~scale ~txns
    (List.concat_map (fun ns -> List.map (point ns) mpls) streams)

let print data =
  let num = Expcommon.num and str = Expcommon.str in
  let points = Expcommon.points data in
  Expcommon.pp_sweep_header "Parallel-WAL sweep" data;
  Printf.printf "%7s %4s %8s %10s %8s %10s %10s  %s\n" "streams" "mpl" "TPS"
    "batch" "forces" "dep-force" "dep-check" "force p99 (ms)";
  List.iter
    (fun p ->
      let p99s =
        String.concat "  "
          (List.map
             (fun e ->
               Printf.sprintf "%s=%.1f" (str "stream" e)
                 (num "p99_s" e *. 1000.0))
             (Expcommon.points ~key:"force_p99" p))
      in
      Printf.printf "%7.0f %4.0f %8.2f %10.2f %8.0f %10.0f %10.0f  %s\n"
        (num "streams" p) (num "mpl" p) (num "tps" p) (num "mean_commit_batch" p)
        (num "forces" p) (num "dep_forces" p) (num "dep_checks" p) p99s)
    points;
  (* Headline: what 4 streams buy over 1 at the contended end. *)
  let find streams =
    Expcommon.find_point
      [ ("streams", Json.Int streams); ("mpl", Json.Int 16) ]
      points
  in
  match (find 1, find 4) with
  | Some one, Some four ->
    Printf.printf "\nshape: MPL 16, 4 streams vs 1: %+.1f%% TPS\n"
      (100.0 *. ((num "tps" four /. num "tps" one) -. 1.0))
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
