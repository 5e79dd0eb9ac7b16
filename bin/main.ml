(* txnlfs — command-line driver for the reproduction: run any paper
   experiment or ablation individually, run TPC-B ad hoc on any of the
   three configurations, or poke at a simulated file system. *)

open Cmdliner

(* A count or a size: a positive integer. *)
let positive =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 -> Error (`Msg (Printf.sprintf "%d is not a positive integer" n))
    | r -> r
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let scale_arg =
  let doc = "TPC-B scale rating in TPS (the paper uses 10). All machine \
             parameters are scaled by scale/10 to preserve the paper's \
             cache/database/disk ratios." in
  Arg.(value & opt positive 4 & info [ "scale" ] ~docv:"N" ~doc)

let txns_arg default =
  let doc = "Number of transactions to execute." in
  Arg.(value & opt positive default & info [ "txns" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let seeds_arg =
  let doc = "Number of seeds (independent runs averaged)." in
  Arg.(value & opt positive 3 & info [ "seeds" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Also write the machine-readable $(b,BENCH_<name>.json) artifact into \
     $(b,\\$BENCH_DIR) (or the current directory)."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let ndisks_arg =
  let doc =
    "Number of data spindles. Above 1, LFS stripes whole segments \
     round-robin across the spindles; 1 reproduces the paper's single-disk \
     configuration bit-for-bit."
  in
  Arg.(value & opt positive 1 & info [ "ndisks" ] ~docv:"N" ~doc)

let log_disk_arg =
  let doc =
    "Add a dedicated log spindle: the write-ahead log (user setups) or the \
     LFS checkpoint region (kernel setup) stops competing with data-disk \
     traffic."
  in
  Arg.(value & flag & info [ "log-disk" ] ~doc)

let log_streams_arg =
  let doc =
    "Number of parallel write-ahead log streams (user setups). Each \
     transaction is hash-assigned to one stream; commit records carry a \
     vector LSN so recovery can merge the streams in dependency order. \
     With $(b,--log-disk), every stream gets its own spindle."
  in
  Arg.(value & opt positive 1 & info [ "log-streams" ] ~docv:"N" ~doc)

let with_disks ~ndisks ~log_disk ?(log_streams = 1) (c : Config.t) =
  { c with Config.fs = { c.Config.fs with Config.ndisks; log_disk; log_streams } }

(* A list element may carry spaces around it ("--mpls '1, 8'"). *)
let trimmed c =
  Arg.conv ~docv:(Arg.conv_docv c)
    ((fun s -> Arg.conv_parser c (String.trim s)), Arg.conv_printer c)

let grain_conv =
  Arg.enum (List.map (fun g -> (Mplsweep.grain_key g, g)) [ `Page; `Record ])

let lock_grain_arg =
  let doc =
    "Two-phase locking granularity: $(b,page) (classic page locks) or \
     $(b,record) (hierarchical record locks with intention modes; see the \
     lock manager docs)."
  in
  Arg.(value & opt grain_conv `Page & info [ "lock-grain" ] ~docv:"G" ~doc)

let ints_arg ?(elt = Arg.int) name ~default ~doc =
  Arg.(value & opt (list (trimmed elt)) default & info [ name ] ~docv:"LIST" ~doc)

let mpls_arg default =
  ints_arg ~elt:positive "mpls" ~default
    ~doc:"Comma-separated multiprogramming levels to sweep."

(* fig4 *)
let fig4_cmd =
  let run scale txns nseeds json =
    let f =
      Fig4.run ~tps_scale:scale ~txns ~seeds:(List.init nseeds (fun i -> i + 1)) ()
    in
    Expcommon.report ~json ~name:"fig4" ~config:f.Fig4.config ~print:Fig4.print
      ~to_json:Fig4.to_json f
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Figure 4: TPC-B throughput of the three configurations")
    Term.(const run $ scale_arg $ txns_arg 20_000 $ seeds_arg $ json_arg)

let fig5_cmd =
  let run scale json =
    let f = Fig5.run ~tps_scale:scale () in
    Expcommon.report ~json ~name:"fig5" ~config:f.Fig5.config ~print:Fig5.print
      ~to_json:Fig5.to_json f
  in
  Cmd.v
    (Cmd.info "fig5"
       ~doc:"Figure 5: non-transaction performance on normal vs transaction kernel")
    Term.(const run $ scale_arg $ json_arg)

let fig6_cmd =
  let run scale txns seed json =
    let f = Fig6.run ~tps_scale:scale ~txns ~seed () in
    Expcommon.report ~json ~name:"fig6" ~config:f.Fig6.config ~print:Fig6.print
      ~to_json:Fig6.to_json f
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Figure 6: key-order scan after random updates")
    Term.(const run $ scale_arg $ txns_arg 20_000 $ seed_arg $ json_arg)

let fig7_cmd =
  let run scale txns nseeds json =
    let seeds = List.init nseeds (fun i -> i + 1) in
    let fig4 = Fig4.run ~tps_scale:scale ~txns ~seeds () in
    let fig6 = Fig6.run ~tps_scale:scale ~txns () in
    Expcommon.report ~json ~name:"fig7" ~config:fig4.Fig4.config
      ~print:Fig7.print
      ~to_json:(Fig7.artifact_json ~fig4 ~fig6)
      (Fig7.of_measurements ~fig4 ~fig6)
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Figure 7: transaction/scan trade-off crossover")
    Term.(const run $ scale_arg $ txns_arg 20_000 $ seeds_arg $ json_arg)

let ablation_cmd =
  let table (f : ?config:Config.t -> ?tps_scale:int -> ?txns:int -> unit -> Ablation.t)
      scale txns =
    Ablation.print (f ~tps_scale:scale ~txns ())
  in
  let coalesce scale txns =
    Ablation.print_coalescing (Ablation.coalescing ~tps_scale:scale ~txns ())
  in
  let tables =
    [
      ("tas", table Ablation.test_and_set);
      ("cleaner", table Ablation.cleaner_placement);
      ("policy", table Ablation.cleaning_policy);
      ("group-commit", table Ablation.group_commit);
      ("mpl", table Ablation.multiprogramming);
    ]
  in
  let all scale txns =
    List.iter (fun (_, f) -> f scale txns) tables;
    coalesce scale txns
  in
  let choices = tables @ [ ("coalesce", coalesce); ("all", all) ] in
  let which =
    let names = List.map (fun (n, _) -> (n, n)) choices in
    let doc = "Which ablation: " ^ Arg.doc_alts_enum names ^ "." in
    Arg.(value & pos 0 (enum names) "all" & info [] ~docv:"NAME" ~doc)
  in
  let run name scale txns = List.assoc name choices scale txns in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Design-choice ablations (test-and-set, cleaner, ...)")
    Term.(const run $ which $ scale_arg $ txns_arg 10_000)

(* Ad hoc TPC-B *)
let setup_arg ?(choices = Txstack.backends) ~default () =
  let doc = "Configuration: " ^ Arg.doc_alts_enum choices ^ "." in
  Arg.(value & opt (enum choices) default & info [ "setup" ] ~docv:"SETUP" ~doc)

let mpl_arg =
  let doc =
    "Multiprogramming level: number of concurrent simulated transaction \
     processes. 1 uses the classic single-user driver; above 1 the run \
     executes on the discrete-event scheduler."
  in
  Arg.(value & opt positive 1 & info [ "mpl" ] ~docv:"N" ~doc)

(* [--mpl] as {!Expcommon.run_tpcb} and {!Sweep.params} take it:
   absent at 1. *)
let sched_mpl_arg =
  Term.(const (fun mpl -> if mpl > 1 then Some mpl else None) $ mpl_arg)

let tpcb_cmd =
  let run setup scale txns seed mpl ndisks log_disk log_streams grain =
    let config =
      Mplsweep.with_grain
        (with_disks ~ndisks ~log_disk ~log_streams (Expcommon.tps_config scale))
        grain
    in
    let r =
      Expcommon.run_tpcb ?mpl ~config ~scale:(Tpcb.scale_for_tps scale) ~txns
        ~seed setup
    in
    Option.iter
      (fun mpl ->
        Printf.printf "mpl %d: %d lock block(s), %d deadlock(s), %d restart(s)\n"
          mpl r.Expcommon.lock_blocks r.Expcommon.deadlocks r.Expcommon.restarts)
      mpl;
    Printf.printf
      "%s: %d txns in %.1f simulated seconds = %.2f TPS (max latency %.3fs, \
       cleaner stall %.1fs)\n"
      (Txstack.label setup)
      r.Expcommon.result.Tpcb.txns r.Expcommon.result.Tpcb.elapsed_s
      r.Expcommon.result.Tpcb.tps r.Expcommon.result.Tpcb.max_latency_s
      r.Expcommon.cleaner_stall_s
  in
  Cmd.v
    (Cmd.info "tpcb" ~doc:"Run TPC-B on one configuration and report TPS")
    Term.(
      const run
      $ setup_arg ~default:Txstack.Lfs_kernel ()
      $ scale_arg $ txns_arg 10_000 $ seed_arg $ sched_mpl_arg $ ndisks_arg
      $ log_disk_arg $ log_streams_arg $ lock_grain_arg)

(* MPL x group-commit sweep on the discrete-event scheduler. *)
let mplsweep_cmd =
  let groups_arg =
    let doc =
      "Comma-separated group-commit configurations as size:timeout_ms pairs \
       (size 1 / timeout 0 forces every commit)."
    in
    (* Timeouts are given in milliseconds and held in seconds. *)
    let ms =
      Arg.conv
        ( (fun s ->
            Result.map (fun ms -> ms /. 1000.0) (Arg.conv_parser Arg.float s)),
          fun ppf secs -> Format.fprintf ppf "%g" (secs *. 1000.0) )
    in
    Arg.(
      value
      & opt (list (trimmed (pair ~sep:':' int ms))) Mplsweep.default_groups
      & info [ "groups" ] ~docv:"LIST" ~doc)
  in
  let grains_arg =
    let doc = "Comma-separated lock granularities to sweep (page, record)." in
    Arg.(
      value
      & opt (list (trimmed grain_conv)) Mplsweep.default_grains
      & info [ "grains" ] ~docv:"LIST" ~doc)
  in
  let run setup scale txns seed mpls groups grains json ndisks log_disk =
    let config = with_disks ~ndisks ~log_disk (Expcommon.tps_config scale) in
    Expcommon.report ~json ~name:"mplsweep" ~config ~print:Mplsweep.print
      ~to_json:Fun.id
      (Mplsweep.run ~config ~tps_scale:scale ~txns ~seed ~mpls ~groups ~grains
         ~setup ())
  in
  Cmd.v
    (Cmd.info "mplsweep"
       ~doc:
         "Sweep multiprogramming level x group-commit configuration x lock \
          granularity on the discrete-event scheduler and report TPS, commit \
          batch sizes, lock blocks and deadlocks")
    Term.(
      (* lfs-user, not the shared default: record granularity changes
         behaviour end to end only in the user-level system. *)
      const run
      $ setup_arg ~default:Txstack.Lfs_user ()
      $ scale_arg $ txns_arg 2_000 $ seed_arg
      $ mpls_arg Mplsweep.default_mpls
      $ groups_arg $ grains_arg $ json_arg $ ndisks_arg $ log_disk_arg)

(* Disk-placement sweep: dedicated log spindle and striped segments. *)
let disksweep_cmd =
  let run setup scale txns seed mpls json =
    Expcommon.report ~json ~name:"disksweep"
      ~config:(Expcommon.tps_config scale)
      ~print:Disksweep.print ~to_json:Fun.id
      (Disksweep.run ~tps_scale:scale ~txns ~seed ~mpls ~setup ())
  in
  Cmd.v
    (Cmd.info "disksweep"
       ~doc:
         "Sweep disk placement — one shared spindle, dedicated log spindle, \
          2- and 4-wide segment stripes — under TPC-B and report TPS and \
          per-disk utilization")
    Term.(
      (* Default to lfs-user: the WAL is where a dedicated log spindle
         pays off. In lfs-kernel the LFS log IS the data, so the spindle
         only carries checkpoints. *)
      const run
      $ setup_arg ~default:Txstack.Lfs_user ()
      $ scale_arg $ txns_arg 1_000 $ seed_arg
      $ mpls_arg Disksweep.default_mpls
      $ json_arg)

(* Parallel-WAL sweep: log-stream count x MPL. *)
let logsweep_cmd =
  let streams_arg =
    ints_arg ~elt:positive "streams" ~default:Logsweep.default_streams
      ~doc:"Comma-separated log-stream counts to sweep."
  in
  let run setup scale txns seed streams mpls json =
    Expcommon.report ~json ~name:"logsweep"
      ~config:(Expcommon.tps_config scale)
      ~print:Logsweep.print ~to_json:Fun.id
      (Logsweep.run ~tps_scale:scale ~txns ~seed ~streams ~mpls ~setup ())
  in
  Cmd.v
    (Cmd.info "logsweep"
       ~doc:
         "Sweep the parallel-WAL stream count under TPC-B (one log spindle \
          per stream) and report TPS, commit batching, cross-stream \
          dependency forces and per-stream force latency")
    Term.(
      (* The WAL (and so the stream count) only exists in the user-level
         systems. *)
      const run
      $ setup_arg
          ~choices:(List.filter (fun (_, s) -> s <> Txstack.Lfs_kernel) Txstack.backends)
          ~default:Txstack.Lfs_user ()
      $ scale_arg $ txns_arg 1_500 $ seed_arg $ streams_arg
      $ mpls_arg Logsweep.default_mpls
      $ json_arg)

let cleanersweep_cmd =
  let utils_arg =
    ints_arg "utils" ~default:Cleanersweep.default_utils
      ~doc:"Comma-separated disk utilizations (percent) to sweep."
  in
  let arms_arg =
    let arms =
      List.map (fun a -> (Cleanersweep.arm_key a, a)) Cleanersweep.default_arms
    in
    let doc = "Comma-separated cleaner arms, each " ^ Arg.doc_alts_enum arms ^ "." in
    Arg.(
      value
      & opt (list (trimmed (enum arms))) Cleanersweep.default_arms
      & info [ "arms" ] ~docv:"LIST" ~doc)
  in
  let run scale txns seed utils mpls arms json =
    Expcommon.report ~json ~name:"cleanersweep"
      ~config:(Expcommon.tps_config scale)
      ~print:Cleanersweep.print ~to_json:Fun.id
      (Cleanersweep.run ~tps_scale:scale ~txns ~seed ~utils ~mpls ~arms ())
  in
  Cmd.v
    (Cmd.info "cleanersweep"
       ~doc:
         "Sweep disk utilization x MPL x cleaner victim policy x hot/cold \
          segregation under TPC-B (kernel-embedded setup) and report TPS, \
          cleaner stall p99 and per-victim write cost")
    Term.(
      const run $ scale_arg $ txns_arg 1_000 $ seed_arg $ utils_arg
      $ mpls_arg Cleanersweep.default_mpls
      $ arms_arg $ json_arg)

(* Event tracing: run TPC-B with the trace ring attached and dump it. *)
let trace_cmd =
  let out_arg =
    let doc = "Write the JSONL trace to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let cap_arg =
    let doc =
      "Trace ring capacity; once full, the oldest events are dropped (the \
       summary line reports how many)."
    in
    Arg.(value & opt int 65_536 & info [ "cap" ] ~docv:"N" ~doc)
  in
  let run setup scale txns seed out cap mpl ndisks log_disk grain =
    let config =
      Mplsweep.with_grain
        (with_disks ~ndisks ~log_disk (Expcommon.tps_config scale))
        grain
    in
    let r =
      Expcommon.run_tpcb ~trace:cap ?mpl ~config
        ~scale:(Tpcb.scale_for_tps scale) ~txns ~seed setup
    in
    match Stats.trace r.Expcommon.stats with
    | None -> prerr_endline "trace: no events captured"
    | Some tr ->
      (match out with
      | None -> Trace.output stdout tr
      | Some file ->
        let oc = open_out file in
        Trace.output oc tr;
        close_out oc);
      Printf.eprintf "trace: %d event(s), %d dropped (ring cap %d)\n"
        (Trace.length tr) (Trace.dropped tr) cap
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run TPC-B with event tracing enabled and emit the structured trace \
          as JSONL (one event per line, keyed by simulated time); --mpl \
          captures multi-process interleavings")
    Term.(
      const run
      $ setup_arg ~default:Txstack.Lfs_kernel ()
      $ scale_arg $ txns_arg 1_000 $ seed_arg $ out_arg $ cap_arg
      $ sched_mpl_arg $ ndisks_arg $ log_disk_arg $ lock_grain_arg)

(* Rule check for BENCH_*.json artifacts (CI rejects empty, malformed or
   shape-violating benchmark output). *)
let bench_check_cmd =
  let files_arg =
    let doc = "BENCH_*.json files to validate." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let check file =
    match Benchcheck.check_file file with
    | [] ->
      Printf.printf "%s: ok\n" file;
      true
    | es ->
      List.iter (fun e -> Printf.printf "%s: %s\n" file e) es;
      false
  in
  let run files =
    let ok = List.fold_left (fun acc f -> check f && acc) true files in
    if not ok then exit 1
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Every artifact needs the meta/data envelope (meta.name, a non-empty \
         meta.config, data), at least one non-zero counter, and histograms \
         carrying count, p50, p95, p99, max and buckets.";
      `P
        "The experiment named in meta.name then checks its data block with \
         the $(b,check) function its module in lib/experiments exports. \
         The sweeps also require their per-point fields.";
      `I
        ( "fig4",
          "every bar's TPS positive; LFS/user TPS above read-optimized; \
           kernel above 0.85 x user." );
      `I ("fig5", "every benchmark's |delta_pct| below 2.");
      `I
        ( "fig6",
          "LFS scan slower than read-optimized; read-optimized contiguity \
           above 0.95." );
      `I ("fig7", "a crossover exists.");
      `I
        ( "mplsweep",
          "mean commit batch > 1 somewhere once MPL and group size allow it; \
           TPS at MPL 8 above MPL 1; record grain above page grain at MPL 16." );
      `I
        ( "disksweep",
          "1+log and 4+log above the shared disk at MPL 8; the 4-wide \
           stripe's busy times within 2x." );
      `I
        ( "logsweep",
          "4 streams above 1 at MPL 16; every point's force_p99 entries \
           name a stream and its p99_s." );
      `I
        ( "cleanersweep",
          "segments_cleaned = cleans_observed; at MPL 8, cost-benefit+seg \
           keeps more of its lowest-utilization TPS at the highest \
           utilization than greedy." );
    ]
  in
  let exits = Cmd.Exit.info 1 ~doc:"on any violation." :: Cmd.Exit.defaults in
  Cmd.v
    (Cmd.info "bench-check" ~man ~exits
       ~doc:"Validate BENCH_*.json artifacts against their experiment's rules")
    Term.(const run $ files_arg)

(* LFS inspection: build a small fs, exercise it, dump segment usage. *)
let lfsdump_cmd =
  let run () =
    let cfg = Config.scaled ~factor:0.1 Config.default in
    let clock = Clock.create () in
    let stats = Stats.create () in
    let disks = Diskset.create clock stats cfg in
    let fs = Lfs.format disks clock stats cfg in
    let v = Lfs.vfs fs in
    let rng = Rng.create ~seed:1 in
    for i = 0 to 19 do
      let fd = v.Vfs.create (Printf.sprintf "/file%02d" i) in
      let data = Bytes.create (4096 * (1 + Rng.int rng 32)) in
      v.Vfs.write fd ~off:0 data
    done;
    Lfs.sync fs;
    Printf.printf "segments: %d   free: %d\n" (Lfs.nsegments fs)
      (Lfs.free_segments fs);
    Printf.printf "segment live-block counts:\n";
    for i = 0 to Lfs.nsegments fs - 1 do
      let l = Lfs.live_blocks fs i in
      if l > 0 then Printf.printf "  seg %3d: %d live\n" i l
    done;
    Format.printf "%a@." Stats.pp stats
  in
  Cmd.v
    (Cmd.info "lfs-dump" ~doc:"Build a demo LFS image and dump segment usage")
    Term.(const run $ const ())

let fsck_cmd =
  let run () =
    let cfg = Config.scaled ~factor:0.1 Config.default in
    let clock = Clock.create () in
    let stats = Stats.create () in
    let disk = Diskset.primary (Diskset.create clock stats cfg) in
    let fs = Ffs.format disk clock stats cfg in
    let v = Ffs.vfs fs in
    let fd = v.Vfs.create "/data" in
    v.Vfs.write fd ~off:0 (Bytes.create 100_000);
    v.Vfs.fsync fd;
    Ffs.crash fs;
    let fs = Ffs.mount disk clock stats cfg in
    let r = Ffs.fsck fs in
    Printf.printf
      "fsck: %d inodes scanned, %d leaked blocks, %d cross-allocated, fixed=%b\n"
      r.Ffs.scanned_inodes r.Ffs.leaked_blocks r.Ffs.cross_allocated r.Ffs.fixed
  in
  Cmd.v
    (Cmd.info "ffs-fsck" ~doc:"Demonstrate FFS crash + fsck repair")
    Term.(const run $ const ())

let snapshot_cmd =
  let run () =
    let cfg = Config.scaled ~factor:0.1 Config.default in
    let clock = Clock.create () in
    let stats = Stats.create () in
    let disks = Diskset.create clock stats cfg in
    let fs = Lfs.format disks clock stats cfg in
    let v = Lfs.vfs fs in
    let fd = v.Vfs.create "/journal" in
    v.Vfs.write fd ~off:0 (Bytes.of_string "day 1: all is well");
    let snap = Lfs.snapshot fs in
    Printf.printf "snapshot taken; %d segment(s) free for new writes\n"
      (Lfs.free_segments fs);
    v.Vfs.write fd ~off:0 (Bytes.of_string "day 2: overwritten!");
    v.Vfs.remove "/journal";
    v.Vfs.sync ();
    Printf.printf "present: /journal exists = %b\n" (v.Vfs.exists "/journal");
    let old = Lfs.snapshot_view fs snap in
    Printf.printf "snapshot: /journal exists = %b, contents = %S\n"
      (old.Vfs.exists "/journal")
      (Bytes.to_string
         (old.Vfs.read (old.Vfs.open_file "/journal") ~off:0 ~len:100));
    Lfs.release_snapshot fs snap;
    print_endline "snapshot released; segments returned to the cleaner"
  in
  Cmd.v
    (Cmd.info "snapshot-demo"
       ~doc:"Demonstrate snapshots and undelete on the no-overwrite log")
    Term.(const run $ const ())

(* Crash-point sweeps: exhaustive fault injection over a seeded
   workload, or a single replay of one reported (seed, crash_point). *)
let faultsim_cmd =
  let backend_arg =
    let doc = "Backend: " ^ Arg.doc_alts_enum Txstack.backends ^ "." in
    Arg.(
      value
      & opt (enum Txstack.backends) Txstack.Lfs_kernel
      & info [ "backend" ] ~docv:"B" ~doc)
  in
  let points_arg =
    let doc = "Number of evenly spaced crash points (0 = every write)." in
    Arg.(value & opt int 0 & info [ "points" ] ~docv:"N" ~doc)
  in
  let crash_point_arg =
    let doc =
      "Replay a single run that crashes after exactly $(docv) block writes \
       (skips the sweep)."
    in
    Arg.(value & opt (some int) None & info [ "crash-point" ] ~docv:"N" ~doc)
  in
  let workload_arg =
    let doc =
      "Workload: $(b,pages) (random transactional page writes) or $(b,tpcb)."
    in
    Arg.(
      value
      & opt (enum Sweep.workloads) Sweep.Tpcb
      & info [ "workload" ] ~docv:"W" ~doc)
  in
  let verbose_arg =
    let doc = "Print every run's outcome, not just violations." in
    Arg.(value & flag & info [ "verbose" ] ~doc)
  in
  let run backend workload txns seed points crash_point verbose mpl ndisks
      log_disk log_streams lock_grain =
    match
      Sweep.params ?mpl ~ndisks ~log_disk ~log_streams ~lock_grain workload
        backend ~seed ~txns
    with
    | exception Invalid_argument msg -> `Error (true, msg)
    | p -> (
      match crash_point with
      | Some crash_point ->
        let o = Sweep.run_one ~crash_point p in
        print_endline (Sweep.describe o);
        if o.Sweep.violations <> [] then exit 1;
        `Ok ()
      | None ->
        let progress o = if verbose then print_endline (Sweep.describe o) in
        let r = Sweep.sweep ~progress p ~points in
        List.iter (fun o -> print_endline (Sweep.describe o)) r.Sweep.failures;
        Printf.printf
          "%s/%s seed=%d: swept %d of %d crash points, %d violation(s)\n"
          (Txstack.name backend)
          (Sweep.workload_name workload)
          seed r.Sweep.points_run r.Sweep.total_writes
          (List.length r.Sweep.failures);
        if r.Sweep.failures <> [] then exit 1;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:
         "Crash after every k-th disk write, recover, and check the \
          durability oracle")
    Term.(
      ret
        (const run $ backend_arg $ workload_arg $ txns_arg 25 $ seed_arg
       $ points_arg $ crash_point_arg $ verbose_arg $ sched_mpl_arg
       $ ndisks_arg $ log_disk_arg $ log_streams_arg $ lock_grain_arg))

let main =
  Cmd.group
    (Cmd.info "txnlfs" ~version:"1.0.0"
       ~doc:
         "Reproduction of Seltzer's 'Transaction Support in a Log-Structured \
          File System' (ICDE 1993)")
    [
      fig4_cmd;
      fig5_cmd;
      fig6_cmd;
      fig7_cmd;
      ablation_cmd;
      tpcb_cmd;
      mplsweep_cmd;
      disksweep_cmd;
      logsweep_cmd;
      cleanersweep_cmd;
      trace_cmd;
      bench_check_cmd;
      lfsdump_cmd;
      fsck_cmd;
      snapshot_cmd;
      faultsim_cmd;
    ]

let () = exit (Cmd.eval main)
