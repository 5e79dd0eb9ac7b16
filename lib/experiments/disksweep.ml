(* Disk-placement sweep: dedicated log spindle and striped segments.
   The paper ran everything on one disk and blamed part of the LIBTP
   shortfall on commit forces competing with data traffic for the single
   arm (Section 4.3). With Diskset the same workload runs with the WAL
   on its own spindle and with LFS segments striped across several data
   spindles; this sweep measures what each placement buys. *)

(* [(label, ndisks, log_disk)]: one shared disk, one disk plus log
   spindle, and 2- and 4-wide stripes plus log spindle. *)
let setups =
  [ ("1-shared", 1, false); ("1+log", 1, true); ("2+log", 2, true);
    ("4+log", 4, true) ]

let default_mpls = [ 1; 8 ]

(* The spindles a configuration reports under, in Diskset.members order:
   the lone data disk keeps the historical "disk" prefix so single-disk
   stats stay bit-for-bit identical. *)
let prefixes (cfg : Config.t) =
  let fs = cfg.Config.fs in
  let data =
    if fs.Config.ndisks = 1 then [ "disk" ]
    else List.init fs.Config.ndisks (Printf.sprintf "disk%d")
  in
  if fs.Config.log_disk then data @ [ "disklog" ] else data

let disk_json stats prefix =
  let time k = Json.Float (Stats.time stats (prefix ^ k))
  and count k = Json.Int (Stats.count stats (prefix ^ k)) in
  Json.Obj
    [
      ("disk", Json.Str prefix);
      ("busy_s", time ".busy");
      ("seek_s", time ".seek");
      ("seeks", count ".seeks");
      ("requests", count ".requests");
      ("blocks_read", count ".blocks_read");
      ("blocks_written", count ".blocks_written");
    ]

let run ?(tps_scale = 2) ?(txns = 1_000) ?(seed = 1)
    ?(mpls = default_mpls) ?(setup = Txstack.Lfs_user) () =
  let base = Expcommon.tps_config tps_scale in
  (* The MPL sweep's scale: page-grain 2PL would serialize every
     transaction on TPC-B's official teller and branch pages. *)
  let scale = Expcommon.spread_scale tps_scale in
  let point (label, ndisks, log_disk) mpl =
    (* Group commit sized to the offered concurrency, as in the fault
       sweeps: MPL 1 forces every commit, MPL 8 batches up to 8 with a
       short rendezvous. Record-grain locking so the committers
       genuinely overlap — under page grain the shared history tail
       page serializes them (DESIGN.md §13) and the placement question
       disappears behind the lock queue. *)
    let fs =
      {
        base.Config.fs with
        Config.ndisks;
        log_disk;
        lock_grain = `Record;
        group_commit_size = mpl;
        group_commit_timeout_s = (if mpl > 1 then 0.02 else 0.0);
      }
    in
    let cfg = { base with Config.fs } in
    let run = Expcommon.run_tpcb ~config:cfg ~scale ~txns ~seed ~mpl setup in
    Json.Obj
      ([
         ("label", Json.Str label);
         ("ndisks", Json.Int ndisks);
         ("log_disk", Json.Bool log_disk);
         ("mpl", Json.Int mpl);
       ]
      @ Expcommon.run_fields run
      @ [
          ( "disks",
            Json.List (List.map (disk_json run.Expcommon.stats) (prefixes cfg))
          );
        ])
  in
  Expcommon.sweep_data ~name:"disksweep" ~setup ~scale ~txns
    (List.concat_map (fun s -> List.map (point s) mpls) setups)

let print data =
  let num = Expcommon.num and str = Expcommon.str in
  let points = Expcommon.points data in
  Expcommon.pp_sweep_header "Disk-placement sweep" data;
  Printf.printf "%-10s %4s %8s %10s  %s\n" "config" "mpl" "TPS" "max lat"
    "per-disk busy (s)";
  List.iter
    (fun p ->
      let busy =
        String.concat "  "
          (List.map
             (fun d -> Printf.sprintf "%s=%.1f" (str "disk" d) (num "busy_s" d))
             (Expcommon.points ~key:"disks" p))
      in
      Printf.printf "%-10s %4.0f %8.2f %9.3fs  %s\n" (str "label" p) (num "mpl" p)
        (num "tps" p) (num "max_latency_s" p) busy)
    points;
  (* Headline: what the log spindle buys once commits overlap. *)
  let find label =
    Expcommon.find_point [ ("label", Json.Str label); ("mpl", Json.Int 8) ] points
  in
  match (find "1-shared", find "1+log") with
  | Some shared, Some dedicated ->
    Printf.printf
      "\nshape: MPL 8, dedicated log spindle vs shared: %+.1f%% TPS\n"
      (100.0 *. ((num "tps" dedicated /. num "tps" shared) -. 1.0))
  | _ -> ()

(* The dedicated log spindle and the 4-wide stripe must beat the shared
   single disk at MPL 8, and the stripe must actually spread the load:
   the per-disk busy times of a 4-wide stripe lie within 2x of each
   other, since the round-robin layout has no hot spindle. *)
let check =
  Expcommon.check_sweep ~name:"disksweep"
    ~fields:[ "label"; "ndisks"; "log_disk"; "mpl"; "tps"; "disks" ]
    (fun points ->
      let num = Expcommon.num in
      let at ndisks log_disk =
        Expcommon.find_point
          [
            ("ndisks", Json.Int ndisks);
            ("log_disk", Json.Bool log_disk);
            ("mpl", Json.Int 8);
          ]
          points
      in
      let faster what placement =
        match (at 1 false, placement) with
        | Some shared, Some p when num "tps" p <= num "tps" shared ->
          [
            Printf.sprintf
              "disksweep: TPS(%s) (%.2f) not above TPS(1 shared) (%.2f) at \
               MPL 8"
              what (num "tps" p) (num "tps" shared);
          ]
        | _ -> []
      in
      let balanced p =
        let busies =
          List.filter_map
            (fun d ->
              match Json.member "disk" d with
              | Some (Json.Str name) when name <> "disklog" ->
                Some (num "busy_s" d)
              | _ -> None)
            (Expcommon.points ~key:"disks" p)
        in
        let hi = List.fold_left Float.max 0.0 busies in
        let lo = List.fold_left Float.min infinity busies in
        if num "ndisks" p = 4.0 && busies <> [] && hi > 2.0 *. lo then
          [
            Printf.sprintf
              "disksweep: 4-disk stripe busy times unbalanced at MPL %g (max \
               %.2fs > 2x min %.2fs)"
              (num "mpl" p) hi lo;
          ]
        else []
      in
      faster "1+log" (at 1 true)
      @ faster "4+log" (at 4 true)
      @ List.concat_map balanced points)
