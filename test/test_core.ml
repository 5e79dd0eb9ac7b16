(* Tests for the embedded (kernel) transaction manager and the Core
   facade: commit durability without any log, abort via buffer
   invalidation, locking, group commit, and crash atomicity. *)

let boot () = Core.boot ~config:(Tutil.small_config ()) ()

let page sys byte = Bytes.make (Lfs.vfs sys.Core.lfs).Vfs.block_size byte

let setup_file sys path =
  let v = Lfs.vfs sys.Core.lfs in
  ignore (v.Vfs.create path);
  Ktxn.protect sys.Core.ktxn path;
  Lfs.sync sys.Core.lfs;
  Lfs.inum_of sys.Core.lfs path

let test_commit_then_read () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'A');
  Ktxn.txn_commit k t1;
  let t2 = Ktxn.txn_begin k in
  Alcotest.(check char) "committed visible" 'A'
    (Bytes.get (Ktxn.read_page k t2 ~inum ~page:0) 0);
  Ktxn.txn_commit k t2

let test_abort_restores_before_image () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'A');
  Ktxn.txn_commit k t1;
  let t2 = Ktxn.txn_begin k in
  Ktxn.write_page k t2 ~inum ~page:0 (page sys 'B');
  Ktxn.write_page k t2 ~inum ~page:1 (page sys 'C');
  Alcotest.(check char) "own write visible" 'B'
    (Bytes.get (Ktxn.read_page k t2 ~inum ~page:0) 0);
  Ktxn.txn_abort k t2;
  let t3 = Ktxn.txn_begin k in
  Alcotest.(check char) "before-image restored from the log" 'A'
    (Bytes.get (Ktxn.read_page k t3 ~inum ~page:0) 0);
  Alcotest.(check char) "never-written page empty" '\000'
    (Bytes.get (Ktxn.read_page k t3 ~inum ~page:1) 0);
  Ktxn.txn_commit k t3

let test_no_log_exists () =
  (* The embedded system performs no explicit logging: no log file, and
     commit durability comes from the segment write alone. *)
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'D');
  Ktxn.txn_commit k t1;
  let v = Lfs.vfs sys.Core.lfs in
  Alcotest.(check (list string)) "only the database file exists" [ "db" ]
    (List.map fst (v.Vfs.readdir "/"))

let test_commit_survives_crash () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'X');
  Ktxn.txn_commit k t1;
  (* Crash with no checkpoint: recovery rolls the segment forward. *)
  let sys = Core.reboot sys in
  let inum = Lfs.inum_of sys.Core.lfs "/db" in
  let t = Ktxn.txn_begin sys.Core.ktxn in
  Alcotest.(check char) "commit durable across crash" 'X'
    (Bytes.get (Ktxn.read_page sys.Core.ktxn t ~inum ~page:0) 0);
  Ktxn.txn_commit sys.Core.ktxn t

let test_uncommitted_lost_on_crash () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'A');
  Ktxn.txn_commit k t1;
  let t2 = Ktxn.txn_begin k in
  Ktxn.write_page k t2 ~inum ~page:0 (page sys 'B');
  (* Crash mid-transaction: t2's pages were pinned in memory, never
     written — atomicity needs no undo at all. *)
  let sys = Core.reboot sys in
  let inum = Lfs.inum_of sys.Core.lfs "/db" in
  let t = Ktxn.txn_begin sys.Core.ktxn in
  Alcotest.(check char) "only committed state on disk" 'A'
    (Bytes.get (Ktxn.read_page sys.Core.ktxn t ~inum ~page:0) 0);
  Ktxn.txn_commit sys.Core.ktxn t

(* A checkpoint writes every dirty inode, also that of a file another
   transaction holds pages of. Roll-forward starts at the checkpoint, so
   an inode kept back there loses the block t1's commit moved with
   deferred metadata. *)
let test_checkpoint_keeps_commit_beside_open_txn () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'A');
  Ktxn.txn_commit k t1;
  let t2 = Ktxn.txn_begin k in
  Ktxn.write_page k t2 ~inum ~page:5 (page sys 'B');
  Lfs.checkpoint sys.Core.lfs;
  let sys = Core.reboot sys in
  Lfs.check sys.Core.lfs;
  let inum = Lfs.inum_of sys.Core.lfs "/db" in
  let t = Ktxn.txn_begin sys.Core.ktxn in
  Alcotest.(check char) "t1's commit survives the checkpoint" 'A'
    (Bytes.get (Ktxn.read_page sys.Core.ktxn t ~inum ~page:0) 0);
  Ktxn.txn_commit sys.Core.ktxn t

let test_unprotected_files_bypass_locking () =
  let sys = boot () in
  let v = Lfs.vfs sys.Core.lfs in
  ignore (v.Vfs.create "/plain");
  Lfs.sync sys.Core.lfs;
  let inum = Lfs.inum_of sys.Core.lfs "/plain" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'P');
  (* Another transaction sees it immediately: no lock, no txn buffering. *)
  let t2 = Ktxn.txn_begin k in
  Alcotest.(check char) "no isolation on unprotected file" 'P'
    (Bytes.get (Ktxn.read_page k t2 ~inum ~page:0) 0);
  Alcotest.(check int) "no locks taken" 0 (Lockmgr.locked_objects (Ktxn.locks k));
  Ktxn.txn_commit k t1;
  Ktxn.txn_commit k t2

(* Two processes: t1 parks on t2's page, then t2 requests t1's page,
   closes the cycle and is aborted — the requester is the victim. The
   victim's buffers are invalidated and the survivor, woken by the
   release, completes its write and commits. *)
let test_lock_conflict_and_deadlock () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  let t2 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'A');
  Ktxn.write_page k t2 ~inum ~page:1 (page sys 'B');
  let sched = Sched.create sys.Core.clock in
  let blockers = ref [] and victim = ref None in
  Sched.spawn sched (fun () ->
      Ktxn.write_page k t1 ~inum ~page:1 (page sys 'C');
      Ktxn.txn_commit k t1);
  Sched.spawn sched (fun () ->
      (* t1 is already descheduled and left sleeping on t2's page... *)
      blockers := Lockmgr.blockers (Ktxn.locks k) ~txn:(Ktxn.txn_id t1);
      (* ...so t2 requesting t1's page closes the cycle. *)
      match Ktxn.read_page k t2 ~inum ~page:0 with
      | _ -> ()
      | exception Ktxn.Deadlock_abort id -> victim := Some id);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (list int)) "writer blocks on t2" [ Ktxn.txn_id t2 ] !blockers;
  Alcotest.(check int) "one lock block" 1
    (Stats.count sys.Core.stats "ktxn.lock_blocks");
  Alcotest.(check (option int)) "requester aborted" (Some (Ktxn.txn_id t2)) !victim;
  let t3 = Ktxn.txn_begin k in
  Alcotest.(check char) "survivor's writes present" 'A'
    (Bytes.get (Ktxn.read_page k t3 ~inum ~page:0) 0);
  Alcotest.(check char) "victim's write gone, survivor's retry applied" 'C'
    (Bytes.get (Ktxn.read_page k t3 ~inum ~page:1) 0);
  Ktxn.txn_commit k t3

(* Outside any scheduler process nothing can wake a waiter, so a
   conflicting request fails loudly and names its blocker. *)
let test_conflict_outside_process_fails () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  let t2 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'A');
  Alcotest.(check bool) "names requester and blocker" true
    (match Ktxn.read_page k t2 ~inum ~page:0 with
    | exception Lockmgr.Blocked_outside_process (r, [ b ]) ->
      r = Ktxn.txn_id t2 && b = Ktxn.txn_id t1
    | _ -> false);
  Ktxn.txn_abort k t2;
  Ktxn.txn_commit k t1

let test_group_commit_batches () =
  let cfg = Tutil.small_config () in
  let cfg =
    {
      cfg with
      Config.fs =
        { cfg.Config.fs with group_commit_timeout_s = 0.005; group_commit_size = 2 };
    }
  in
  let sys = Core.boot ~config:cfg () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let partials_before = Stats.count sys.Core.stats "lfs.partials" in
  (* Two overlapping transactions on different pages: the second commit
     reaches the group size and both flush in one segment write. *)
  let t1 = Ktxn.txn_begin k in
  let t2 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys '1');
  Ktxn.write_page k t2 ~inum ~page:1 (page sys '2');
  Ktxn.txn_commit k t1;
  Alcotest.(check int) "first commit deferred" partials_before
    (Stats.count sys.Core.stats "lfs.partials");
  Ktxn.txn_commit k t2;
  Alcotest.(check int) "one shared flush" (partials_before + 1)
    (Stats.count sys.Core.stats "lfs.partials");
  Alcotest.(check int) "both committed" 2 (Stats.count sys.Core.stats "ktxn.commits");
  let t3 = Ktxn.txn_begin k in
  Alcotest.(check char) "t1 data" '1' (Bytes.get (Ktxn.read_page k t3 ~inum ~page:0) 0);
  Alcotest.(check char) "t2 data" '2' (Bytes.get (Ktxn.read_page k t3 ~inum ~page:1) 0);
  Ktxn.txn_commit k t3

let test_syncer_skips_txn_buffers () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'Z');
  (* Push past the syncer interval; uncommitted buffers must not leak to
     disk (they are on the inode's transaction list, not its dirty list). *)
  Clock.advance sys.Core.clock 31.0;
  let v = Lfs.vfs sys.Core.lfs in
  ignore (v.Vfs.exists "/db");
  ignore (v.Vfs.stat "/db");
  let sys2 = Core.reboot sys in
  let inum2 = Lfs.inum_of sys2.Core.lfs "/db" in
  let t = Ktxn.txn_begin sys2.Core.ktxn in
  Alcotest.(check char) "uncommitted data never hit the disk" '\000'
    (Bytes.get (Ktxn.read_page sys2.Core.ktxn t ~inum:inum2 ~page:0) 0);
  Ktxn.txn_commit sys2.Core.ktxn t

let test_group_commit_timeout_settles_at_next_begin () =
  let cfg = Tutil.small_config () in
  let cfg =
    {
      cfg with
      Config.fs =
        { cfg.Config.fs with group_commit_timeout_s = 0.05; group_commit_size = 99 };
    }
  in
  let sys = Core.boot ~config:cfg () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'T');
  let before = Clock.now sys.Core.clock in
  Ktxn.txn_commit k t1;
  (* The commit itself deferred the flush... *)
  Alcotest.(check bool) "commit returned promptly" true
    (Clock.now sys.Core.clock -. before < 0.05);
  (* ...and the next transaction begin sleeps to the deadline and flushes. *)
  let t2 = Ktxn.txn_begin k in
  Alcotest.(check bool) "deadline honoured" true
    (Clock.now sys.Core.clock -. before >= 0.05);
  Alcotest.(check char) "flushed data visible" 'T'
    (Bytes.get (Ktxn.read_page k t2 ~inum ~page:0) 0);
  Ktxn.txn_commit k t2

let test_explicit_flush_commits () =
  let cfg = Tutil.small_config () in
  let cfg =
    {
      cfg with
      Config.fs =
        { cfg.Config.fs with group_commit_timeout_s = 5.0; group_commit_size = 99 };
    }
  in
  let sys = Core.boot ~config:cfg () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t1 = Ktxn.txn_begin k in
  Ktxn.write_page k t1 ~inum ~page:0 (page sys 'F');
  Ktxn.txn_commit k t1;
  Ktxn.flush_commits k;
  (* Crash immediately: the flushed commit must be durable. *)
  let sys = Core.reboot sys in
  let inum = Lfs.inum_of sys.Core.lfs "/db" in
  let t = Ktxn.txn_begin sys.Core.ktxn in
  Alcotest.(check char) "durable after explicit flush" 'F'
    (Bytes.get (Ktxn.read_page sys.Core.ktxn t ~inum ~page:0) 0);
  Ktxn.txn_commit sys.Core.ktxn t

(* Scheduler-based concurrency ---------------------------------------------- *)

(* Two worker processes lock the same pages in opposite orders. Both
   genuinely park on each other's locks (a real wait-for cycle between
   suspended processes, not a same-thread retry); the detector aborts
   one and the lock manager's waker resumes the survivor. *)
let test_sched_deadlock_cycle () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let sched = Sched.create sys.Core.clock in
  let aborted = ref 0 and committed = ref 0 in
  let proc first second () =
    let t = Ktxn.txn_begin k in
    match
      Ktxn.write_page k t ~inum ~page:first (page sys 'X');
      (* yield so the other process takes its first lock too *)
      Sched.delay sched 0.001;
      Ktxn.write_page k t ~inum ~page:second (page sys 'Y')
    with
    | () ->
      Ktxn.txn_commit k t;
      incr committed
    | exception Ktxn.Deadlock_abort _ -> incr aborted
  in
  Sched.spawn sched (proc 0 1);
  Sched.spawn sched (proc 1 0);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check int) "one victim" 1 !aborted;
  Alcotest.(check int) "one survivor" 1 !committed;
  Alcotest.(check bool) "a process really blocked first" true
    (Stats.count sys.Core.stats "ktxn.lock_blocks" >= 1);
  (* The survivor's writes are intact and the victim's are gone. *)
  let t = Ktxn.txn_begin k in
  let a = Bytes.get (Ktxn.read_page k t ~inum ~page:0) 0 in
  let b = Bytes.get (Ktxn.read_page k t ~inum ~page:1) 0 in
  Ktxn.txn_commit k t;
  Alcotest.(check bool) "exactly one txn's pages survive" true
    ((a = 'X' && b = 'Y') || (a = 'Y' && b = 'X'))

(* With MPL >= group size, parked committers fill the batch and the
   filling commit flushes everyone at once: one group flush, full-size
   batch, and nobody pays the timeout. At MPL 1 the same configuration
   degenerates to one flush per commit. *)
let test_sched_group_commit_rendezvous () =
  let cfg = Tutil.small_config () in
  let cfg =
    {
      cfg with
      Config.fs =
        { cfg.Config.fs with group_commit_timeout_s = 10.0; group_commit_size = 4 };
    }
  in
  let sys = Core.boot ~config:cfg () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let sched = Sched.create sys.Core.clock in
  let t0 = Clock.now sys.Core.clock in
  for i = 0 to 3 do
    Sched.spawn sched (fun () ->
        let t = Ktxn.txn_begin k in
        Ktxn.write_page k t ~inum ~page:i (page sys 'G');
        Ktxn.txn_commit k t)
  done;
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check int) "one shared flush" 1
    (Stats.count sys.Core.stats "ktxn.group_flushes");
  (match Stats.histo sys.Core.stats "ktxn.commit_batch" with
  | Some h ->
    Alcotest.(check (float 1e-9)) "batch reached the group size" 4.0
      (Histo.max_value h)
  | None -> Alcotest.fail "no batch histogram");
  Alcotest.(check bool) "filled batch beat the timeout" true
    (Clock.now sys.Core.clock -. t0 < 10.0);
  (* The same work at MPL 1 (legacy path, no scheduler) forces a flush
     per commit and waits out each timeout. *)
  let sys' = Core.boot ~config:cfg () in
  let inum' = setup_file sys' "/db" in
  let k' = sys'.Core.ktxn in
  for i = 0 to 3 do
    let t = Ktxn.txn_begin k' in
    Ktxn.write_page k' t ~inum:inum' ~page:i (page sys' 'G');
    Ktxn.txn_commit k' t
  done;
  Ktxn.flush_commits k';
  Alcotest.(check int) "MPL 1: a flush per commit" 4
    (Stats.count sys'.Core.stats "ktxn.group_flushes")

let test_protect_unprotect_toggle () =
  let sys = boot () in
  let v = Lfs.vfs sys.Core.lfs in
  ignore (v.Vfs.create "/f");
  Ktxn.protect sys.Core.ktxn "/f";
  Alcotest.(check bool) "on" true (v.Vfs.stat "/f").Vfs.protected_;
  Ktxn.unprotect sys.Core.ktxn "/f";
  Alcotest.(check bool) "off" false (v.Vfs.stat "/f").Vfs.protected_;
  (* With protection off, transactional writes take no locks. *)
  Lfs.sync sys.Core.lfs;
  let inum = Lfs.inum_of sys.Core.lfs "/f" in
  let t = Ktxn.txn_begin sys.Core.ktxn in
  Ktxn.write_page sys.Core.ktxn t ~inum ~page:0 (page sys 'u');
  Alcotest.(check int) "no locks" 0 (Lockmgr.locked_objects (Ktxn.locks sys.Core.ktxn));
  Ktxn.txn_commit sys.Core.ktxn t

let test_finished_txn_rejected () =
  let sys = boot () in
  let inum = setup_file sys "/db" in
  let k = sys.Core.ktxn in
  let t = Ktxn.txn_begin k in
  Ktxn.txn_commit k t;
  Alcotest.(check bool) "reuse rejected" true
    (match Ktxn.read_page k t ~inum ~page:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Core facade with transactional access methods --------------------------- *)

let test_facade_btree_roundtrip () =
  let sys = boot () in
  Core.with_txn sys (fun txn ->
      let bt = Core.btree sys txn ~path:"/accounts" in
      for i = 0 to 499 do
        Btree.insert bt (Printf.sprintf "k%04d" i) (string_of_int i)
      done);
  Core.with_txn sys (fun txn ->
      let bt = Core.btree sys txn ~path:"/accounts" in
      Alcotest.(check int) "all committed" 500 (Btree.count bt);
      Btree.check bt)

let test_facade_abort_on_exception () =
  let sys = boot () in
  Core.with_txn sys (fun txn ->
      let bt = Core.btree sys txn ~path:"/t" in
      Btree.insert bt "committed" "yes");
  (try
     Core.with_txn sys (fun txn ->
         let bt = Core.btree sys txn ~path:"/t" in
         Btree.insert bt "doomed" "yes";
         failwith "boom")
   with Failure _ -> ());
  Core.with_txn sys (fun txn ->
      let bt = Core.btree sys txn ~path:"/t" in
      Alcotest.(check (option string)) "committed stays" (Some "yes")
        (Btree.find bt "committed");
      Alcotest.(check (option string)) "aborted gone" None (Btree.find bt "doomed"))

let test_facade_crash_atomicity_with_btree () =
  let sys = boot () in
  Core.with_txn sys (fun txn ->
      let bt = Core.btree sys txn ~path:"/t" in
      for i = 0 to 99 do
        Btree.insert bt (Printf.sprintf "k%03d" i) "v"
      done);
  (* Uncommitted transaction in flight at the crash. *)
  let txn = Ktxn.txn_begin sys.Core.ktxn in
  let bt = Core.btree sys txn ~path:"/t" in
  for i = 100 to 199 do
    Btree.insert bt (Printf.sprintf "k%03d" i) "v"
  done;
  let sys = Core.reboot sys in
  Core.with_txn sys (fun txn ->
      let bt = Core.btree sys txn ~path:"/t" in
      Alcotest.(check int) "exactly the committed records" 100 (Btree.count bt);
      Btree.check bt)

(* Randomized crash-atomicity property. *)
let prop_crash_atomicity =
  Tutil.qtest ~count:20 "embedded commits are atomic across crashes"
    QCheck2.Gen.(list_size (int_range 1 12) (pair (int_bound 4) (int_bound 255)))
    (fun writes ->
      let sys = boot () in
      let inum = setup_file sys "/db" in
      let committed = Hashtbl.create 8 in
      List.iteri
        (fun i (pageno, v) ->
          let k = sys.Core.ktxn in
          let txn = Ktxn.txn_begin k in
          Ktxn.write_page k txn ~inum ~page:pageno (page sys (Char.chr v));
          if i mod 3 = 2 then Ktxn.txn_abort k txn
          else begin
            Ktxn.txn_commit k txn;
            Hashtbl.replace committed pageno v
          end)
        writes;
      let sys = Core.reboot sys in
      let inum = Lfs.inum_of sys.Core.lfs "/db" in
      let txn = Ktxn.txn_begin sys.Core.ktxn in
      let ok =
        Hashtbl.fold
          (fun pageno v ok ->
            ok
            && Char.code
                 (Bytes.get (Ktxn.read_page sys.Core.ktxn txn ~inum ~page:pageno) 0)
               = v)
          committed true
      in
      Ktxn.txn_commit sys.Core.ktxn txn;
      ok)

let () =
  Alcotest.run "core"
    [
      ( "ktxn",
        [
          Alcotest.test_case "commit visible" `Quick test_commit_then_read;
          Alcotest.test_case "abort restores" `Quick test_abort_restores_before_image;
          Alcotest.test_case "no log file" `Quick test_no_log_exists;
          Alcotest.test_case "commit survives crash" `Quick test_commit_survives_crash;
          Alcotest.test_case "uncommitted lost" `Quick test_uncommitted_lost_on_crash;
          Alcotest.test_case "checkpoint keeps a commit beside an open txn" `Quick
            test_checkpoint_keeps_commit_beside_open_txn;
          Alcotest.test_case "unprotected bypass" `Quick
            test_unprotected_files_bypass_locking;
          Alcotest.test_case "conflict/deadlock" `Quick test_lock_conflict_and_deadlock;
          Alcotest.test_case "conflict outside a process fails" `Quick
            test_conflict_outside_process_fails;
          Alcotest.test_case "group commit" `Quick test_group_commit_batches;
          Alcotest.test_case "syncer skips txn buffers" `Quick
            test_syncer_skips_txn_buffers;
          Alcotest.test_case "group commit settle" `Quick
            test_group_commit_timeout_settles_at_next_begin;
          Alcotest.test_case "explicit flush" `Quick test_explicit_flush_commits;
          Alcotest.test_case "protect/unprotect" `Quick test_protect_unprotect_toggle;
          Alcotest.test_case "finished txn rejected" `Quick test_finished_txn_rejected;
        ] );
      ( "sched",
        [
          Alcotest.test_case "deadlock on a real wait cycle" `Quick
            test_sched_deadlock_cycle;
          Alcotest.test_case "group-commit rendezvous" `Quick
            test_sched_group_commit_rendezvous;
        ] );
      ( "facade",
        [
          Alcotest.test_case "btree roundtrip" `Quick test_facade_btree_roundtrip;
          Alcotest.test_case "abort on exception" `Quick test_facade_abort_on_exception;
          Alcotest.test_case "crash atomicity" `Quick
            test_facade_crash_atomicity_with_btree;
          prop_crash_atomicity;
        ] );
    ]
