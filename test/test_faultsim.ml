(* Fault-injection harness tests: the injector itself (tearing,
   read-error retries, determinism), short crash-point sweeps per
   backend that run on every `dune runtest`, and a negative control — a
   deliberately broken recovery path must make the sweep light up.

   Set FAULTSIM_FULL=1 for the exhaustive sweeps (every crash point,
   larger workloads); by default those run a small sampled version. *)

let full = Sys.getenv_opt "FAULTSIM_FULL" <> None

(* Injector ------------------------------------------------------------ *)

let test_tear_multiblock_write () =
  let m = Tutil.machine () in
  let bs = m.Tutil.cfg.Config.disk.block_size in
  let f = Faultsim.arm ~crash_after:5 m.Tutil.disks in
  let first = Tutil.payload 1 (3 * bs) in
  Disk.write_run m.Tutil.disk 100 first;
  let torn = Tutil.payload 2 (4 * bs) in
  (match Disk.write_run m.Tutil.disk 200 torn with
  | () -> Alcotest.fail "expected Injected_crash"
  | exception Disk.Injected_crash -> ());
  Alcotest.(check bool) "crashed" true (Faultsim.crashed f);
  Alcotest.(check int) "writes counted through the tear" 7 (Faultsim.writes f);
  Tutil.check_bytes "pre-crash write intact" (Bytes.sub first 0 bs)
    (Disk.peek m.Tutil.disk 100);
  (* crash_after 5 with 3 blocks already down: exactly 2 of the 4 persist *)
  Tutil.check_bytes "torn block 0" (Bytes.sub torn 0 bs) (Disk.peek m.Tutil.disk 200);
  Tutil.check_bytes "torn block 1" (Bytes.sub torn bs bs)
    (Disk.peek m.Tutil.disk 201);
  Tutil.check_bytes "beyond the tear untouched" (Bytes.make bs '\000')
    (Disk.peek m.Tutil.disk 202);
  Faultsim.disarm f;
  Disk.write_run m.Tutil.disk 300 torn;
  Tutil.check_bytes "disarmed disk writes normally" (Bytes.sub torn (3 * bs) bs)
    (Disk.peek m.Tutil.disk 303)

let test_read_errors_are_transient () =
  let m = Tutil.machine () in
  let bs = m.Tutil.cfg.Config.disk.block_size in
  let data = Tutil.payload 3 bs in
  Disk.write m.Tutil.disk 50 data;
  let rng = Rng.create ~seed:42 in
  let f = Faultsim.arm ~read_error_rate:1.0 ~rng m.Tutil.disks in
  for _ = 1 to 6 do
    Tutil.check_bytes "read survives transient errors" data
      (Disk.read m.Tutil.disk 50)
  done;
  Faultsim.disarm f;
  Alcotest.(check bool) "retries were recorded" true
    (Stats.count m.Tutil.stats "disk.read_retries" > 0)

let test_rate_without_rng_rejected () =
  let m = Tutil.machine () in
  match Faultsim.arm ~read_error_rate:0.5 m.Tutil.disks with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Every run is a pure function of (seed, crash_point): replaying one
   must reproduce the identical outcome, byte counts and all. *)
let test_replay_is_deterministic () =
  let p = Sweep.params Sweep.Pages Txstack.Lfs_kernel ~seed:9 ~txns:5 in
  let run () = Sweep.run_one ~crash_point:37 p in
  let a = run () and b = run () in
  Alcotest.(check string) "identical outcome" (Sweep.describe a)
    (Sweep.describe b);
  Alcotest.(check int) "identical write counts" a.Sweep.writes b.Sweep.writes;
  Alcotest.(check bool) "both crashed the same way" a.Sweep.crashed
    b.Sweep.crashed

(* A violation's report ends with the command line that replays it.
   Every parameter of the run must be on it: the flags that differ from
   the command's defaults, the workload and transaction count, and the
   crash point. *)
let test_recipe_names_every_parameter () =
  let o =
    Sweep.run_one ~crash_point:5
      (Sweep.params ~mpl:2 ~ndisks:2 ~log_disk:true ~log_streams:2
         ~lock_grain:`Record Sweep.Tpcb Txstack.Lfs_user ~seed:11 ~txns:6)
  in
  let report = Sweep.describe { o with Sweep.violations = [ "injected" ] } in
  List.iter
    (fun flag ->
      if not (Tutil.contains report flag) then
        Alcotest.failf "recipe lacks %S:\n%s" flag report)
    [
      "--backend lfs-user"; "--workload tpcb"; "--txns 6"; "--mpl 2";
      "--ndisks 2"; "--log-disk"; "--log-streams 2"; "--lock-grain record";
      "--seed 11"; "--crash-point 5";
    ]

(* A fault-free base run has no crash point: its recipe omits the flag
   (the command then sweeps, which repeats the base run) rather than
   printing a value the command rejects. *)
let test_base_run_recipe () =
  let o = Sweep.run_one (Sweep.params Sweep.Pages Txstack.Ffs_user ~seed:7 ~txns:3) in
  let report = Sweep.describe { o with Sweep.violations = [ "injected" ] } in
  List.iter
    (fun (what, sub, present) ->
      Alcotest.(check bool) what present (Tutil.contains report sub))
    [
      ("replays the page workload", "--workload pages --txns 3", true);
      ("no crash point", "--crash-point", false);
      ("no none", "none", false);
      ("defaults omitted", "--mpl", false);
    ]

(* The two combinations no workload runs are rejected when the run is
   described, before anything boots. *)
let test_params_reject_bad_combinations () =
  let rejected what f =
    match f () with
    | (_ : Sweep.params) -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejected "pages at an mpl" (fun () ->
      Sweep.params ~mpl:2 Sweep.Pages Txstack.Lfs_kernel ~seed:1 ~txns:1);
  rejected "record grain inline" (fun () ->
      Sweep.params ~lock_grain:`Record Sweep.Tpcb Txstack.Lfs_user ~seed:1 ~txns:1);
  rejected "record grain on pages" (fun () ->
      Sweep.params ~lock_grain:`Record Sweep.Pages Txstack.Lfs_user ~seed:1 ~txns:1)

(* The fault-free TPC-B run's block-write count, per backend, inline and
   at MPL 2, as Txstack.boot_tpcb boots it: scheduler, stack and
   database, protection, daemons. A boot that leaves out the protection
   or starts no daemons under the scheduler moves these counts. *)
let test_tpcb_writes_pinned () =
  List.iter
    (fun (backend, mpl, expected) ->
      let o =
        Sweep.run_one (Sweep.params ?mpl Sweep.Tpcb backend ~seed:1 ~txns:10)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s%s writes" (Txstack.name backend)
           (match mpl with Some n -> Printf.sprintf " at MPL %d" n | None -> ""))
        expected o.Sweep.writes)
    [
      (Txstack.Ffs_user, None, 21);
      (Txstack.Ffs_user, Some 2, 22);
      (Txstack.Lfs_user, None, 31);
      (Txstack.Lfs_user, Some 2, 31);
      (Txstack.Lfs_kernel, None, 67);
      (Txstack.Lfs_kernel, Some 2, 60);
    ]

(* Sweeps --------------------------------------------------------------- *)

let assert_clean r =
  (match r.Sweep.failures with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "\n" (List.map Sweep.describe fs)));
  Alcotest.(check bool) "run produced writes to crash into" true
    (r.Sweep.total_writes > 5)

let sweep_pages backend () =
  let points = if full then 0 else 25 in
  let txns = if full then 20 else 6 in
  assert_clean
    (Sweep.sweep (Sweep.params Sweep.Pages backend ~seed:7 ~txns) ~points)

let sweep_tpcb_kernel () =
  let tpcb = Sweep.params Sweep.Tpcb Txstack.Lfs_kernel ~seed:1 in
  if full then begin
    let r = Sweep.sweep (tpcb ~txns:40) ~points:0 in
    Alcotest.(check bool)
      (Printf.sprintf "at least 200 crash points (got %d)" r.Sweep.total_writes)
      true
      (r.Sweep.total_writes >= 200);
    assert_clean r
  end
  else assert_clean (Sweep.sweep (tpcb ~txns:5) ~points:8)

let sweep_tpcb_ffs () =
  let tpcb = Sweep.params Sweep.Tpcb Txstack.Ffs_user ~seed:1 in
  if full then begin
    let r = Sweep.sweep (tpcb ~txns:100) ~points:0 in
    Alcotest.(check bool)
      (Printf.sprintf "at least 200 crash points (got %d)" r.Sweep.total_writes)
      true
      (r.Sweep.total_writes >= 200);
    assert_clean r
  end
  else assert_clean (Sweep.sweep (tpcb ~txns:6) ~points:8)

let sweep_tpcb_lfs_user () =
  assert_clean
    (Sweep.sweep (Sweep.params Sweep.Tpcb Txstack.Lfs_user ~seed:2 ~txns:5) ~points:8)

(* MPL 2 on the discrete-event scheduler with group commit enabled:
   crash points land mid-rendezvous, with one committer possibly
   flushed-but-parked and another unflushed. The acknowledged-commit
   lower bound must still hold. *)
let sweep_tpcb_mpl2 () =
  if full then
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 Sweep.Tpcb Txstack.Lfs_kernel ~seed:3 ~txns:20)
         ~points:0)
  else
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 Sweep.Tpcb Txstack.Lfs_kernel ~seed:3 ~txns:6)
         ~points:10)

(* Multi-spindle crash coverage: two striped data disks plus a dedicated
   log spindle, MPL 2. A crash now interrupts I/O that spans spindles —
   segment writes striped across the data disks and WAL flushes on the
   log disk — and recovery must roll forward from a log whose home file
   system itself went through crash/remount/fsck. *)
let sweep_tpcb_multidisk () =
  if full then
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 ~ndisks:2 ~log_disk:true Sweep.Tpcb
            Txstack.Lfs_user ~seed:5 ~txns:20)
         ~points:0)
  else
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 ~ndisks:2 ~log_disk:true Sweep.Tpcb
            Txstack.Lfs_user ~seed:5 ~txns:6)
         ~points:10)

(* Record-grain locking on the same 2-disks-plus-log topology: commits
   overlap far more than at page grain (the hot history tail page no
   longer serializes committers), so crash points land inside
   concurrent log forces and partial-segment writes. Aborted history
   appends leave zeroed holes at this grain; the oracle counts only
   non-hole records, which must still lie in [acked, acked + mpl]. *)
let sweep_tpcb_record_grain () =
  if full then
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 ~ndisks:2 ~log_disk:true ~lock_grain:`Record
            Sweep.Tpcb Txstack.Lfs_user ~seed:11 ~txns:20)
         ~points:0)
  else
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 ~ndisks:2 ~log_disk:true ~lock_grain:`Record
            Sweep.Tpcb Txstack.Lfs_user ~seed:11 ~txns:6)
         ~points:10)

(* Two parallel WAL streams on the 2-disks-plus-log topology: every
   stream lives in its own FFS on its own spindle, all of which crash,
   remount and fsck together; recovery must merge the streams by
   vector-LSN dependency order, with crash points that can strand one
   stream's tail behind a dependency lost on the other. Record grain
   keeps committers — and so the two group-commit rendezvous — genuinely
   concurrent. *)
let sweep_tpcb_multistream () =
  if full then
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 ~ndisks:2 ~log_disk:true ~log_streams:2
            ~lock_grain:`Record Sweep.Tpcb Txstack.Lfs_user ~seed:7 ~txns:20)
         ~points:0)
  else
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 ~ndisks:2 ~log_disk:true ~log_streams:2
            ~lock_grain:`Record Sweep.Tpcb Txstack.Lfs_user ~seed:7 ~txns:6)
         ~points:10)

(* Crash sweep under genuine cleaning pressure: a 640-block disk (20
   segments at the sweep's 32-block geometry) keeps the kernel cleaner —
   cost-benefit victim selection, hot/cold segregation and the adaptive
   daemon, all on by default — running throughout the workload, so crash
   points land inside segment cleaning and cold-survivor relocation.
   Recovery from a crash mid-relocation must still satisfy the TPC-B
   oracle. *)
let sweep_tpcb_cleaning_pressure () =
  if full then
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 ~nblocks:640 Sweep.Tpcb Txstack.Lfs_kernel
              ~seed:13 ~txns:20)
         ~points:0)
  else
    assert_clean
      (Sweep.sweep
         (Sweep.params ~mpl:2 ~nblocks:640 Sweep.Tpcb Txstack.Lfs_kernel
              ~seed:13 ~txns:6)
         ~points:10)

(* Negative control: disable the roll-forward payload verification and
   the sweep must catch torn partial-segment writes that the hardened
   recovery path would have rejected. A harness that cannot detect a
   known-broken recovery proves nothing. *)
let test_broken_recovery_is_caught () =
  Lfs.test_disable_payload_check := true;
  Fun.protect
    ~finally:(fun () -> Lfs.test_disable_payload_check := false)
    (fun () ->
      let r =
        Sweep.sweep
          (Sweep.params Sweep.Pages Txstack.Lfs_kernel ~seed:3 ~txns:4)
          ~points:0
      in
      Alcotest.(check bool) "sweep detects the broken recovery path" true
        (r.Sweep.failures <> []))

let () =
  Alcotest.run "faultsim"
    [
      ( "injector",
        [
          Alcotest.test_case "tears a multi-block write" `Quick
            test_tear_multiblock_write;
          Alcotest.test_case "read errors are transient" `Quick
            test_read_errors_are_transient;
          Alcotest.test_case "rate without rng rejected" `Quick
            test_rate_without_rng_rejected;
          Alcotest.test_case "replay is deterministic" `Quick
            test_replay_is_deterministic;
          Alcotest.test_case "recipe names every parameter" `Quick
            test_recipe_names_every_parameter;
          Alcotest.test_case "base-run recipe" `Quick test_base_run_recipe;
          Alcotest.test_case "bad parameter combinations rejected" `Quick
            test_params_reject_bad_combinations;
          Alcotest.test_case "tpcb write counts pinned" `Quick
            test_tpcb_writes_pinned;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "pages / lfs-kernel" `Slow
            (sweep_pages Txstack.Lfs_kernel);
          Alcotest.test_case "pages / lfs-user" `Slow (sweep_pages Txstack.Lfs_user);
          Alcotest.test_case "pages / ffs-user" `Slow (sweep_pages Txstack.Ffs_user);
          Alcotest.test_case "tpcb / lfs-kernel" `Slow sweep_tpcb_kernel;
          Alcotest.test_case "tpcb / lfs-user" `Slow sweep_tpcb_lfs_user;
          Alcotest.test_case "tpcb / ffs-user" `Slow sweep_tpcb_ffs;
          Alcotest.test_case "tpcb / lfs-kernel at MPL 2" `Slow sweep_tpcb_mpl2;
          Alcotest.test_case "tpcb / lfs-user 2+log at MPL 2" `Slow
            sweep_tpcb_multidisk;
          Alcotest.test_case "tpcb / lfs-user 2+log at MPL 2, record grain"
            `Slow sweep_tpcb_record_grain;
          Alcotest.test_case "tpcb / lfs-user 2+log at MPL 2, 2 streams"
            `Slow sweep_tpcb_multistream;
          Alcotest.test_case "tpcb / lfs-kernel under cleaning pressure"
            `Slow sweep_tpcb_cleaning_pressure;
          Alcotest.test_case "broken recovery is caught" `Slow
            test_broken_recovery_is_caught;
        ] );
    ]
