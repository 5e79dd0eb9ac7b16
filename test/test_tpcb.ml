(* Integration tests: TPC-B on all three configurations (user-level on
   read-optimized, user-level on LFS, embedded in LFS) at a small scale,
   with balance-consistency invariants, plus the Andrew/Bigfile/SCAN
   workloads. *)

let small_scale = { Tpcb.accounts = 2_000; tellers = 20; branches = 2 }

let test_cfg () =
  let cfg = Tutil.small_config () in
  (* Roomy enough for a 2000-account database plus churn. *)
  { cfg with Config.disk = { cfg.Config.disk with nblocks = 8192 } }

let build_lfs () =
  let m = Tutil.machine ~cfg:(test_cfg ()) () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let rng = Rng.create ~seed:1 in
  let db = Tpcb.build m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~rng ~scale:small_scale in
  (m, fs, v, db)

let build_ffs () =
  let m = Tutil.machine ~cfg:(test_cfg ()) () in
  let fs = Ffs.format m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Ffs.vfs fs in
  let rng = Rng.create ~seed:1 in
  let db = Tpcb.build m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~rng ~scale:small_scale in
  (m, fs, v, db)

let run_user (m : Tutil.machine) v db n =
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:256
      ~log_path:"/tpcb/log" ()
  in
  let rng = Rng.create ~seed:7 in
  let r = Tpcb.run m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.User env) ~rng ~n in
  (* Flush the user-level pool so plain-pager inspection sees the data. *)
  Libtp.checkpoint env;
  r

let test_scaling_rules () =
  let s = Tpcb.scale_for_tps 10 in
  Alcotest.(check int) "accounts" 1_000_000 s.Tpcb.accounts;
  Alcotest.(check int) "tellers" 100 s.Tpcb.tellers;
  Alcotest.(check int) "branches" 10 s.Tpcb.branches

let test_user_on_lfs () =
  let m, _, v, db = build_lfs () in
  let r = run_user m v db 150 in
  Alcotest.(check int) "all committed" 150 r.Tpcb.txns;
  Alcotest.(check bool) "simulated time advanced" true (r.Tpcb.elapsed_s > 0.0);
  Alcotest.(check int) "history grew" 150
    (Tpcb.history_count m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v);
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v

let test_user_on_ffs () =
  let m, _, v, db = build_ffs () in
  let r = run_user m v db 150 in
  Alcotest.(check int) "all committed" 150 r.Tpcb.txns;
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v

let test_kernel_on_lfs () =
  let m, fs, v, db = build_lfs () in
  let k = Ktxn.create fs in
  Tpcb.protect_all db k;
  let rng = Rng.create ~seed:7 in
  let r = Tpcb.run m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.Kernel k) ~rng ~n:150 in
  Alcotest.(check int) "all committed" 150 r.Tpcb.txns;
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v

let test_kernel_crash_consistency () =
  let m, fs, _, db = build_lfs () in
  let k = Ktxn.create fs in
  Tpcb.protect_all db k;
  let rng = Rng.create ~seed:7 in
  ignore (Tpcb.run m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.Kernel k) ~rng ~n:80);
  (* Crash mid-transaction. *)
  let txn = Ktxn.txn_begin k in
  let inum = Tpcb.account_fd db in
  Ktxn.write_page k txn ~inum ~page:1 (Bytes.make 4096 'J');
  Lfs.crash fs;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let db = Tpcb.open_db v ~scale:small_scale in
  (* The database is consistent: committed transactions all present, the
     torn one absent. *)
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v;
  Alcotest.(check int) "exactly the committed history" 80
    (Tpcb.history_count m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v)

let test_user_crash_consistency () =
  let m, fs, v, db = build_lfs () in
  ignore (run_user m v db 60);
  Lfs.crash fs;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  (* Recovery happens inside open_env. *)
  let _env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:256
      ~log_path:"/tpcb/log" ()
  in
  let db = Tpcb.open_db v ~scale:small_scale in
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v;
  Alcotest.(check int) "history preserved" 60
    (Tpcb.history_count m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v)

let test_balances_match_known_deltas () =
  let m, _, v, db = build_lfs () in
  ignore (run_user m v db 40);
  (* Σ accounts = Σ tellers = Σ branches is checked; additionally the
     grand total must equal the history sum, i.e. money is conserved. *)
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v

let dump_balances (m : Tutil.machine) v db =
  let bt =
    Btree.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu
      (Pager.plain v (Tpcb.account_fd db))
  in
  let acc = ref [] in
  Btree.iter bt (fun k v ->
      acc := (k, v) :: !acc;
      true);
  List.rev !acc

let test_user_and_kernel_produce_identical_state () =
  (* The same seed drives the same transaction mix through both systems;
     semantically they must compute the same database. *)
  let run_kernel () =
    let m, fs, v, db = build_lfs () in
    let k = Ktxn.create fs in
    Tpcb.protect_all db k;
    let rng = Rng.create ~seed:23 in
    ignore (Tpcb.run m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.Kernel k) ~rng ~n:120);
    dump_balances m v db
  in
  let run_user () =
    let m, _, v, db = build_lfs () in
    let env =
      Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:256
        ~log_path:"/tpcb/log" ()
    in
    let rng = Rng.create ~seed:23 in
    ignore (Tpcb.run m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.User env) ~rng ~n:120);
    Libtp.checkpoint env;
    dump_balances m v db
  in
  let a = run_kernel () and b = run_user () in
  Alcotest.(check int) "same record count" (List.length a) (List.length b);
  List.iter2
    (fun (k1, v1) (k2, v2) ->
      if k1 <> k2 || v1 <> v2 then
        Alcotest.failf "divergence at %s: kernel=%s user=%s" k1 v1 v2)
    a b

let test_multi_user_lfs_kernel () =
  let m, fs, v, db = build_lfs () in
  let k = Ktxn.create fs in
  Tpcb.protect_all db k;
  let rng = Rng.create ~seed:11 in
  let sched = Sched.create m.Tutil.clock in
  let r =
    Tpcb.run_sched m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.Kernel k)
      ~rng ~n:200 ~mpl:4
  in
  Sched.detach sched;
  Alcotest.(check int) "all committed" 200 r.Tpcb.base.Tpcb.txns;
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v;
  Alcotest.(check int) "history matches commits" 200
    (Tpcb.history_count m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v)

let test_multi_user_contention () =
  (* A tiny database forces conflicts and deadlocks; the run must still
     complete with a consistent outcome. *)
  let tiny = { Tpcb.accounts = 8; tellers = 4; branches = 2 } in
  let m = Tutil.machine ~cfg:(test_cfg ()) () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let rng = Rng.create ~seed:4 in
  let db = Tpcb.build m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~rng ~scale:tiny in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:64
      ~log_path:"/tpcb/log" ()
  in
  let sched = Sched.create m.Tutil.clock in
  let r =
    Tpcb.run_sched m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.User env)
      ~rng ~n:300 ~mpl:6
  in
  Sched.detach sched;
  Alcotest.(check int) "all committed" 300 r.Tpcb.base.Tpcb.txns;
  Alcotest.(check bool) "contention observed" true (r.Tpcb.conflicts > 0);
  Libtp.checkpoint env;
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v

let test_record_grain_mpl8_shared_history () =
  (* Regression for the deleted history-partitioning hack: at record
     grain all eight workers append to the one shared history file
     (PR 3 gave each worker a private partition to dodge the tail-page
     lock). Slot-level record locks must keep the run consistent, and
     the hole-tolerant readers must count exactly the committed
     appends. *)
  let cfg = test_cfg () in
  let cfg =
    { cfg with Config.fs = { cfg.Config.fs with Config.lock_grain = `Record } }
  in
  let m = Tutil.machine ~cfg () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let rng = Rng.create ~seed:5 in
  let db =
    Tpcb.build m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~rng ~scale:small_scale
  in
  let sched = Sched.create m.Tutil.clock in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:256
      ~log_path:"/tpcb/log" ()
  in
  let r =
    Tpcb.run_sched m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.User env)
      ~rng ~n:200 ~mpl:8
  in
  Sched.detach sched;
  Alcotest.(check int) "all committed" 200 r.Tpcb.base.Tpcb.txns;
  Libtp.checkpoint env;
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v;
  Alcotest.(check int) "committed appends visible in shared history" 200
    (Tpcb.history_count m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v)

let test_multi_user_matches_single_user_invariants () =
  let m, fs, v, db = build_lfs () in
  let k = Ktxn.create fs in
  Tpcb.protect_all db k;
  let rng = Rng.create ~seed:11 in
  let sched = Sched.create m.Tutil.clock in
  let r =
    Tpcb.run_sched m.Tutil.clock m.Tutil.stats m.Tutil.cfg db (Tpcb.Kernel k)
      ~rng ~n:120 ~mpl:3
  in
  Sched.detach sched;
  Alcotest.(check int) "all committed" 120 r.Tpcb.base.Tpcb.txns;
  (* Crash right after: everything committed must survive. *)
  Lfs.crash fs;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v' = Lfs.vfs fs in
  ignore v;
  let db = Tpcb.open_db v' ~scale:small_scale in
  Tpcb.check_consistency m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v';
  Alcotest.(check int) "committed history after crash" 120
    (Tpcb.history_count m.Tutil.clock m.Tutil.stats m.Tutil.cfg db v')

(* Workloads ---------------------------------------------------------------- *)

let test_andrew_runs_on_both () =
  let run_one mk =
    let m = Tutil.machine ~cfg:(test_cfg ()) () in
    let v = mk m in
    let rng = Rng.create ~seed:3 in
    let phases =
      Workloads.andrew m.Tutil.clock m.Tutil.stats m.Tutil.cfg v rng
        { Workloads.dirs = 4; files_per_dir = 5; file_bytes = 3000 }
    in
    Alcotest.(check int) "five phases" 5 (List.length phases);
    List.iter
      (fun (name, dt) ->
        if dt < 0.0 then Alcotest.failf "phase %s negative time" name)
      phases;
    (* The tree really exists. *)
    Alcotest.(check int) "dirs" 4 (List.length (v.Vfs.readdir "/andrew"));
    List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 phases
  in
  let lfs_time =
    run_one (fun m ->
        Lfs.vfs (Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg))
  in
  let ffs_time =
    run_one (fun m ->
        Ffs.vfs (Ffs.format m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg))
  in
  Alcotest.(check bool) "both measurable" true (lfs_time > 0.0 && ffs_time > 0.0)

let test_bigfile () =
  let m = Tutil.machine ~cfg:(test_cfg ()) () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let rng = Rng.create ~seed:3 in
  let phases =
    Workloads.bigfile m.Tutil.clock m.Tutil.stats m.Tutil.cfg v rng
      { Workloads.sizes_bytes = [ 500_000; 1_000_000 ] }
  in
  Alcotest.(check int) "three phases per size" 6 (List.length phases);
  (* Files are gone afterwards. *)
  Alcotest.(check int) "cleaned up" 0 (List.length (v.Vfs.readdir "/bigfile"))

let test_scan_counts_all_records () =
  let m, _, v, db = build_lfs () in
  let dt = Workloads.scan m.Tutil.clock m.Tutil.stats m.Tutil.cfg v db in
  Alcotest.(check bool) "takes time" true (dt > 0.0);
  Alcotest.(check int) "saw every account" small_scale.Tpcb.accounts
    (Stats.count m.Tutil.stats "scan.records")

let test_lfs_scan_slower_after_random_updates () =
  (* The Section 5.3 effect at miniature scale: scanning after random
     updates is slower on LFS than on the read-optimized system. *)
  let scan_time build run_txns =
    let m, v, db, fssync =
      match build with
      | `Lfs ->
        let m, fs, v, db = build_lfs () in
        (m, v, db, fun () -> Lfs.sync fs)
      | `Ffs ->
        let m, fs, v, db = build_ffs () in
        (m, v, db, fun () -> Ffs.sync fs)
    in
    ignore (run_user m v db run_txns);
    fssync ();
    Workloads.scan m.Tutil.clock m.Tutil.stats m.Tutil.cfg v db
  in
  let lfs = scan_time `Lfs 400 in
  let ffs = scan_time `Ffs 400 in
  Alcotest.(check bool)
    (Printf.sprintf "LFS scan (%.3fs) slower than read-optimized (%.3fs)" lfs ffs)
    true (lfs > ffs)

let () =
  Alcotest.run "tx_tpcb"
    [
      ( "tpcb",
        [
          Alcotest.test_case "scaling rules" `Quick test_scaling_rules;
          Alcotest.test_case "user on LFS" `Quick test_user_on_lfs;
          Alcotest.test_case "user on FFS" `Quick test_user_on_ffs;
          Alcotest.test_case "kernel on LFS" `Quick test_kernel_on_lfs;
          Alcotest.test_case "kernel crash consistency" `Quick
            test_kernel_crash_consistency;
          Alcotest.test_case "user crash consistency" `Quick
            test_user_crash_consistency;
          Alcotest.test_case "money conserved" `Quick test_balances_match_known_deltas;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "user == kernel semantics" `Quick
            test_user_and_kernel_produce_identical_state;
        ] );
      ( "multi-user",
        [
          Alcotest.test_case "kernel mpl=4" `Quick test_multi_user_lfs_kernel;
          Alcotest.test_case "high contention" `Quick test_multi_user_contention;
          Alcotest.test_case "record grain, shared history, mpl=8" `Quick
            test_record_grain_mpl8_shared_history;
          Alcotest.test_case "crash after multi-user run" `Quick
            test_multi_user_matches_single_user_invariants;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "andrew" `Quick test_andrew_runs_on_both;
          Alcotest.test_case "bigfile" `Quick test_bigfile;
          Alcotest.test_case "scan" `Quick test_scan_counts_all_records;
          Alcotest.test_case "scan slower on LFS" `Quick
            test_lfs_scan_slower_after_random_updates;
        ] );
    ]
