type row = { label : string; tps : float; max_latency_s : float; note : string }

type t = { title : string; rows : row list }

let measure ~config ~tps_scale ~txns setup label note =
  let scale = Tpcb.scale_for_tps tps_scale in
  let r = Expcommon.run_tpcb ~config ~scale ~txns ~seed:1 setup in
  {
    label;
    tps = r.Expcommon.result.Tpcb.tps;
    max_latency_s = r.Expcommon.result.Tpcb.max_latency_s;
    note;
  }

let test_and_set ?config ?(tps_scale = 4) ?(txns = 10_000) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let with_tas v =
    { config with Config.cpu = { config.Config.cpu with has_test_and_set = v } }
  in
  {
    title = "Test-and-set ablation (user-level synchronization cost)";
    rows =
      [
        measure ~config:(with_tas false) ~tps_scale ~txns Txstack.Lfs_user
          "user-level, semaphore syscalls" "the measured DECstation";
        measure ~config:(with_tas true) ~tps_scale ~txns Txstack.Lfs_user
          "user-level, hardware test-and-set" "Bershad-style fast mutex";
        measure ~config:(with_tas false) ~tps_scale ~txns Txstack.Lfs_kernel
          "kernel (embedded)" "one trap per operation";
      ];
  }

let cleaner_placement ?config ?(tps_scale = 4) ?(txns = 15_000) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let with_user v =
    { config with Config.fs = { config.Config.fs with lfs_user_cleaner = v } }
  in
  {
    title = "Cleaner placement (Section 5.4): kernel batch vs user-space incremental";
    rows =
      [
        measure ~config:(with_user false) ~tps_scale ~txns Txstack.Lfs_kernel
          "kernel cleaner (locks files, batch)" "as measured in the paper";
        measure ~config:(with_user true) ~tps_scale ~txns Txstack.Lfs_kernel
          "user-space cleaner (incremental)" "one segment per opportunity";
      ];
  }

let cleaning_policy ?config ?(tps_scale = 4) ?(txns = 15_000) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let with_policy p =
    { config with Config.fs = { config.Config.fs with cleaner_policy = p } }
  in
  {
    title = "Cleaning policy under the TPC-B hot-update workload";
    rows =
      [
        measure ~config:(with_policy `Greedy) ~tps_scale ~txns
          Txstack.Lfs_kernel "greedy (fewest live blocks)" "";
        measure ~config:(with_policy `Cost_benefit) ~tps_scale ~txns
          Txstack.Lfs_kernel "cost-benefit (age-weighted)"
          "single-user stalls clean greedily under either policy";
      ];
  }

let group_commit ?config ?(tps_scale = 4) ?(txns = 10_000) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let with_gc timeout =
    {
      config with
      Config.fs = { config.Config.fs with group_commit_timeout_s = timeout };
    }
  in
  {
    title = "Group commit at multiprogramming level 1 (Section 4.4)";
    rows =
      [
        measure ~config:(with_gc 0.0) ~tps_scale ~txns Txstack.Lfs_kernel
          "flush at every commit" "";
        measure ~config:(with_gc 0.01) ~tps_scale ~txns Txstack.Lfs_kernel
          "group commit, 10 ms timeout"
          "no concurrent committers: pure added latency";
        measure ~config:(with_gc 0.05) ~tps_scale ~txns Txstack.Lfs_kernel
          "group commit, 50 ms timeout" "";
      ];
  }

type coalesce_result = {
  scan_before_s : float;
  scan_after_s : float;
  coalesce_cost_s : float;
  contiguity_before : float;
  contiguity_after : float;
}

let coalescing ?config ?(tps_scale = 4) ?(txns = 15_000) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let scale = Tpcb.scale_for_tps tps_scale in
  let m = Txstack.machine Txstack.Lfs_user config in
  let rng = Rng.create ~seed:1 in
  let stack, db, _ = Txstack.boot_tpcb ~wal:Expcommon.wal ~scale ~rng m in
  let fs = Option.get (Txstack.lfs stack) in
  ignore (Tpcb.run m.clock m.stats m.cfg db stack.txn ~rng ~n:txns);
  (match stack.txn with Tpcb.User env -> Libtp.checkpoint env | Kernel _ -> ());
  Lfs.sync fs;
  let inum = Lfs.inum_of fs "/tpcb/account" in
  let contiguity_before = Lfs.contiguity fs inum in
  let scan_before_s = Workloads.scan m.clock m.stats m.cfg stack.vfs db in
  let t0 = Clock.now m.clock in
  Lfs.coalesce_file fs inum;
  Lfs.sync fs;
  let coalesce_cost_s = Clock.now m.clock -. t0 in
  let contiguity_after = Lfs.contiguity fs inum in
  let scan_after_s = Workloads.scan m.clock m.stats m.cfg stack.vfs db in
  {
    scan_before_s;
    scan_after_s;
    coalesce_cost_s;
    contiguity_before;
    contiguity_after;
  }

let print_coalescing r =
  Expcommon.pp_header
    "Coalescing cleaner (Section 5.4): repairing sequential reads after \
     random updates";
  Printf.printf "scan before coalescing: %10.1fs  (account-file contiguity %.2f)\n"
    r.scan_before_s r.contiguity_before;
  Printf.printf "idle-time coalescing:   %10.1fs\n" r.coalesce_cost_s;
  Printf.printf "scan after coalescing:  %10.1fs  (contiguity %.2f)\n"
    r.scan_after_s r.contiguity_after;
  Printf.printf "speedup: %.2fx — \"use the cleaner to coalesce files which \
                 become fragmented\"\n"
    (r.scan_before_s /. r.scan_after_s)

let multiprogramming ?config ?(tps_scale = 4) ?(txns = 8_000) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let scale = Tpcb.scale_for_tps tps_scale in
  let row mpl =
    let r =
      Expcommon.run_tpcb ~config ~scale ~txns ~seed:1 ~mpl Txstack.Lfs_kernel
    in
    {
      label = Printf.sprintf "multiprogramming level %d" mpl;
      tps = r.Expcommon.result.Tpcb.tps;
      max_latency_s = r.Expcommon.result.Tpcb.max_latency_s;
      note =
        Printf.sprintf "%d lock blocks, %d deadlocks" r.Expcommon.lock_blocks
          r.Expcommon.deadlocks;
    }
  in
  {
    title =
      "Multiprogramming level (embedded manager, scheduler): TPS rises with \
       MPL, and so do lock blocks and the worst latency";
    rows = List.map row [ 1; 2; 4 ];
  }

let print t =
  Expcommon.pp_header t.title;
  Printf.printf "%-40s %10s %16s  %s\n" "variant" "TPS" "max latency" "note";
  List.iter
    (fun r ->
      Printf.printf "%-40s %10.2f %15.3fs  %s\n" r.label r.tps r.max_latency_s
        r.note)
    t.rows
