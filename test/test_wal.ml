(* Tests for the user-level transaction system: log record codecs, the log
   manager, the buffer pool's WAL rule, transaction semantics
   (commit/abort/isolation), and crash recovery on a real LFS substrate. *)

let mk_env ?(cfg = Tutil.small_config ()) () =
  let m = Tutil.machine ~cfg () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:32
      ~checkpoint_every:1000 ~log_path:"/wal.log" ()
  in
  (m, fs, v, env)

(* Crash the machine and bring the environment back up, running recovery. *)
let crash_recover (m : Tutil.machine) fs =
  Lfs.crash fs;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:32
      ~checkpoint_every:1000 ~log_path:"/wal.log" ()
  in
  (fs, v, env)

let page_with v byte = Bytes.make v.Vfs.block_size byte

(* Logrec codec ----------------------------------------------------------- *)

let test_logrec_roundtrip () =
  let recs =
    [
      { Logrec.txn = 1; prev = Logrec.null_lsn; body = Logrec.Begin };
      {
        Logrec.txn = 1;
        prev = 0;
        body =
          Logrec.Update
            {
              file = 42;
              page = 7;
              off = 123;
              pstream = -1;
              plsn = Logrec.null_lsn;
              before = Bytes.of_string "old!";
              after = Bytes.of_string "new!";
            };
      };
      {
        Logrec.txn = 3;
        prev = 12;
        body =
          Logrec.Update
            {
              file = 42;
              page = 8;
              off = 0;
              pstream = 2;
              plsn = 4096;
              before = Bytes.of_string "x";
              after = Bytes.of_string "y";
            };
      };
      { Logrec.txn = 1; prev = 30; body = Logrec.Commit { deps = [] } };
      {
        Logrec.txn = 4;
        prev = 31;
        body = Logrec.Commit { deps = [ (0, 128); (3, 77) ] };
      };
      { Logrec.txn = 2; prev = 99; body = Logrec.Abort { deps = [ (1, 0) ] } };
      { Logrec.txn = 0; prev = Logrec.null_lsn; body = Logrec.Checkpoint { active = [ 3; 4 ] } };
    ]
  in
  let buf = Buffer.create 256 in
  List.iter (fun r -> Buffer.add_bytes buf (Logrec.encode r)) recs;
  let data = Buffer.to_bytes buf in
  let rec decode_all off acc =
    match Logrec.decode data off with
    | Some (r, next) -> decode_all next (r :: acc)
    | None -> List.rev acc
  in
  let out = decode_all 0 [] in
  Alcotest.(check int) "all decoded" (List.length recs) (List.length out);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "txn" a.Logrec.txn b.Logrec.txn;
      Alcotest.(check int) "prev" a.Logrec.prev b.Logrec.prev;
      Alcotest.(check bool) "body" true (a.Logrec.body = b.Logrec.body))
    recs out

let test_logrec_rejects_torn () =
  let r =
    {
      Logrec.txn = 1;
      prev = 0;
      body =
        Logrec.Update
          {
            file = 1;
            page = 1;
            off = 0;
            pstream = -1;
            plsn = Logrec.null_lsn;
            before = Bytes.make 50 'a';
            after = Bytes.make 50 'b';
          };
    }
  in
  let enc = Logrec.encode r in
  (* Truncated *)
  Alcotest.(check bool) "truncated" true
    (Logrec.decode (Bytes.sub enc 0 (Bytes.length enc - 5)) 0 = None);
  (* Flipped byte in the body *)
  let bad = Bytes.copy enc in
  Bytes.set bad (Bytes.length bad - 1) 'x';
  Alcotest.(check bool) "corrupt" true (Logrec.decode bad 0 = None)

let prop_logrec_roundtrip =
  Tutil.qtest "logrec round-trip"
    QCheck2.Gen.(
      tup5 (int_bound 10000) (int_bound 100) (int_bound 4000)
        (string_size (int_range 1 80))
        (pair (int_range (-1) 7) (int_bound 100000)))
    (fun (txn, page, off, s, (pstream, plsn)) ->
      let body =
        Logrec.Update
          {
            file = 3;
            page;
            off;
            pstream;
            plsn = (if pstream < 0 then Logrec.null_lsn else plsn);
            before = Bytes.of_string s;
            after = Bytes.of_string (String.uppercase_ascii s);
          }
      in
      let r = { Logrec.txn; prev = 17; body } in
      match Logrec.decode (Logrec.encode r) 0 with
      | Some (r', _) -> r' = r
      | None -> false)

(* Log manager ------------------------------------------------------------ *)

let test_logmgr_force_and_scan () =
  let m, _fs, v, _env = mk_env () in
  let log = Logmgr.open_log m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~path:"/log2" in
  let l1 = Logmgr.append log { Logrec.txn = 1; prev = -1; body = Logrec.Begin } in
  let l2 =
    Logmgr.append log
      { Logrec.txn = 1; prev = l1; body = Logrec.Commit { deps = [] } }
  in
  Alcotest.(check bool) "nothing flushed yet" true (Logmgr.flushed_lsn log = 0);
  Logmgr.force log ~upto:l2;
  Alcotest.(check bool) "flushed" true (Logmgr.flushed_lsn log > l2);
  let records = List.of_seq (Logmgr.read_from log 0) in
  Alcotest.(check int) "scan finds both" 2 (List.length records)

let test_logmgr_reopen_positions_at_end () =
  let m, _fs, v, _env = mk_env () in
  let log = Logmgr.open_log m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~path:"/log3" in
  let l1 = Logmgr.append log { Logrec.txn = 5; prev = -1; body = Logrec.Begin } in
  Logmgr.force log ~upto:l1;
  let end1 = Logmgr.next_lsn log in
  let log' = Logmgr.open_log m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~path:"/log3" in
  Alcotest.(check int) "reopen at end" end1 (Logmgr.next_lsn log')

(* The recovery scan reads the log incrementally (64 KiB windows), not as
   one whole-file slurp. A record bigger than the window must still decode
   (the window widens until it fits), and the bytes touched must stay
   proportional to the log size. *)
let test_logmgr_incremental_scan () =
  let m, _fs, v, _env = mk_env () in
  let log = Logmgr.open_log m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~path:"/big" in
  let big n c =
    {
      Logrec.txn = 9;
      prev = Logrec.null_lsn;
      body =
        Logrec.Update
          {
            file = 1;
            page = 0;
            off = 0;
            pstream = -1;
            plsn = Logrec.null_lsn;
            before = Bytes.make n c;
            after = Bytes.make n c;
          };
    }
  in
  (* One record straddling the 64 KiB window, padded with small ones. *)
  let lsns =
    List.map
      (fun r -> Logmgr.append log r)
      [ big 200 'a'; big 70_000 'b'; big 200 'c'; big 200 'd' ]
  in
  Logmgr.force log ~upto:(List.nth lsns 3);
  Stats.reset m.Tutil.stats;
  let scanned = List.of_seq (Logmgr.read_from log 0) in
  Alcotest.(check int) "all records decoded" 4 (List.length scanned);
  List.iter2
    (fun lsn (lsn', _) -> Alcotest.(check int) "lsn" lsn lsn')
    lsns scanned;
  let reads = Stats.count m.Tutil.stats "log.recovery_reads" in
  let bytes = Stats.count m.Tutil.stats "log.recovery_bytes_scanned" in
  let log_fd = v.Vfs.open_file "/big" in
  let size = v.Vfs.size log_fd in
  Alcotest.(check bool) "multiple incremental reads" true (reads > 1);
  Alcotest.(check bool)
    (Printf.sprintf "bytes scanned (%d) bounded by 4x log size (%d)" bytes size)
    true
    (bytes > 0 && bytes <= 4 * size);
  (* Reopening replays the same scan: position still lands at the end. *)
  let log' = Logmgr.open_log m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~path:"/big" in
  Alcotest.(check int) "reopen at end" (Logmgr.next_lsn log) (Logmgr.next_lsn log')

(* Transactions ----------------------------------------------------------- *)

let test_commit_visible () =
  let _m, _fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  let txn = Libtp.begin_txn env in
  Libtp.write_page env txn ~file:fd ~page:0 (page_with v 'A');
  Libtp.commit env txn;
  let txn2 = Libtp.begin_txn env in
  let got = Libtp.read_page env txn2 ~file:fd ~page:0 in
  Alcotest.(check char) "committed data visible" 'A' (Bytes.get got 0);
  Libtp.commit env txn2

let test_abort_undoes () =
  let _m, _fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  let t1 = Libtp.begin_txn env in
  Libtp.write_page env t1 ~file:fd ~page:0 (page_with v 'A');
  Libtp.commit env t1;
  let t2 = Libtp.begin_txn env in
  Libtp.write_page env t2 ~file:fd ~page:0 (page_with v 'B');
  Libtp.write_page env t2 ~file:fd ~page:1 (page_with v 'C');
  Libtp.abort env t2;
  let t3 = Libtp.begin_txn env in
  Alcotest.(check char) "page 0 restored" 'A'
    (Bytes.get (Libtp.read_page env t3 ~file:fd ~page:0) 0);
  Alcotest.(check char) "page 1 restored" '\000'
    (Bytes.get (Libtp.read_page env t3 ~file:fd ~page:1) 0);
  Libtp.commit env t3

(* The reader parks on the writer's page lock; the writer's commit
   releases it and the reader resumes with the committed data. *)
let test_two_phase_locking_conflict () =
  let m, _fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  let t1 = Libtp.begin_txn env in
  Libtp.write_page env t1 ~file:fd ~page:0 (page_with v 'A');
  let t2 = Libtp.begin_txn env in
  let sched = Sched.create m.Tutil.clock in
  let blockers = ref [] and seen = ref ' ' in
  Sched.spawn sched (fun () ->
      seen := Bytes.get (Libtp.read_page env t2 ~file:fd ~page:0) 0;
      Libtp.commit env t2);
  Sched.spawn sched (fun () ->
      blockers := Lockmgr.blockers (Libtp.locks env) ~txn:(Libtp.txn_id t2);
      Libtp.commit env t1);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (list int)) "reader blocks on writer" [ Libtp.txn_id t1 ]
    !blockers;
  Alcotest.(check int) "one lock block" 1
    (Stats.count m.Tutil.stats "txn.lock_blocks");
  Alcotest.(check char) "reader sees the committed write" 'A' !seen

let test_deadlock_aborts_requester () =
  let m, _fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  let t1 = Libtp.begin_txn env in
  let t2 = Libtp.begin_txn env in
  Libtp.write_page env t1 ~file:fd ~page:0 (page_with v 'A');
  Libtp.write_page env t2 ~file:fd ~page:1 (page_with v 'B');
  let sched = Sched.create m.Tutil.clock in
  let victim = ref None in
  (* t1 parks waiting for page 1... *)
  Sched.spawn sched (fun () ->
      ignore (Libtp.read_page env t1 ~file:fd ~page:1);
      Libtp.commit env t1);
  (* ...and t2 requesting page 0 closes the cycle: t2 is aborted. *)
  Sched.spawn sched (fun () ->
      match Libtp.read_page env t2 ~file:fd ~page:0 with
      | _ -> ()
      | exception Libtp.Deadlock_abort id -> victim := Some id);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (option int)) "deadlock abort" (Some (Libtp.txn_id t2)) !victim;
  (* t2's update is undone. *)
  let t3 = Libtp.begin_txn env in
  Alcotest.(check char) "t2 undone" '\000'
    (Bytes.get (Libtp.read_page env t3 ~file:fd ~page:1) 0);
  Alcotest.(check char) "t1 committed" 'A'
    (Bytes.get (Libtp.read_page env t3 ~file:fd ~page:0) 0);
  Libtp.commit env t3

(* Outside any scheduler process nothing can wake a waiter, so a
   conflicting request fails loudly and names its blocker. *)
let test_conflict_outside_process_fails () =
  let _m, _fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  let t1 = Libtp.begin_txn env in
  Libtp.write_page env t1 ~file:fd ~page:0 (page_with v 'A');
  let t2 = Libtp.begin_txn env in
  Alcotest.(check bool) "names requester and blocker" true
    (match Libtp.read_page env t2 ~file:fd ~page:0 with
    | exception Lockmgr.Blocked_outside_process (r, [ b ]) ->
      r = Libtp.txn_id t2 && b = Libtp.txn_id t1
    | _ -> false);
  Libtp.abort env t2;
  Libtp.commit env t1

let test_no_op_write_logs_nothing () =
  let m, _fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  let t1 = Libtp.begin_txn env in
  Libtp.write_page env t1 ~file:fd ~page:0 (page_with v 'A');
  Libtp.commit env t1;
  let appends = Stats.count m.Tutil.stats "log.appends" in
  let t2 = Libtp.begin_txn env in
  Libtp.write_page env t2 ~file:fd ~page:0 (page_with v 'A');
  Libtp.commit env t2;
  (* Only Begin and Commit were logged, no Update. *)
  Alcotest.(check int) "no update record" (appends + 2)
    (Stats.count m.Tutil.stats "log.appends")

(* Random force points: whatever was forced must scan back identically
   after reopening the log. *)
let prop_logmgr_force_scan =
  Tutil.qtest ~count:30 "forced records survive reopen"
    QCheck2.Gen.(
      list_size (int_range 1 25)
        (tup3 (int_range 1 50) (string_size ~gen:(char_range 'a' 'z') (int_range 1 60)) bool))
    (fun batches ->
      let m, _fs, v, _env = mk_env () in
      let log = Logmgr.open_log m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~path:"/plog" in
      let durable = ref [] in
      let pending = ref [] in
      List.iter
        (fun (txn, payload, force_now) ->
          let r =
            {
              Logrec.txn;
              prev = Logrec.null_lsn;
              body =
                Logrec.Update
                  {
                    file = 1;
                    page = 0;
                    off = 0;
                    pstream = -1;
                    plsn = Logrec.null_lsn;
                    before = Bytes.of_string payload;
                    after = Bytes.of_string (String.uppercase_ascii payload);
                  };
            }
          in
          let lsn = Logmgr.append log r in
          pending := (lsn, r) :: !pending;
          if force_now then begin
            Logmgr.force log ~upto:lsn;
            durable := !durable @ List.rev !pending;
            pending := []
          end)
        batches;
      (* Reopen: only the forced prefix is visible. *)
      let log' = Logmgr.open_log m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~path:"/plog" in
      let scanned = List.of_seq (Logmgr.read_from log' 0) in
      List.length scanned = List.length !durable
      && List.for_all2
           (fun (lsn, r) (lsn', r') -> lsn = lsn' && r = r')
           !durable scanned)

(* Buffer pool / WAL rule --------------------------------------------------- *)

let test_wal_rule_on_eviction () =
  (* Evicting a dirty page must force the log that covers its update
     first. Use a 2-page pool so the eviction is immediate. *)
  let m = Tutil.machine () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:2
      ~log_path:"/wal.log" ()
  in
  let fd = v.Vfs.create "/db" in
  let txn = Libtp.begin_txn env in
  Libtp.write_page env txn ~file:fd ~page:0 (page_with v 'W');
  let flushed_before = Logmgr.flushed_lsn (Libtp.log env) in
  (* Touch two other pages: page 0 gets evicted dirty. *)
  ignore (Libtp.read_page env txn ~file:fd ~page:1);
  ignore (Libtp.read_page env txn ~file:fd ~page:2);
  Alcotest.(check bool) "log forced before page write" true
    (Logmgr.flushed_lsn (Libtp.log env) > flushed_before);
  (* The evicted page's content reached the file system. *)
  Alcotest.(check char) "page on fs" 'W' (Bytes.get (v.Vfs.read fd ~off:0 ~len:1) 0);
  Libtp.commit env txn

let test_group_commit_timeout_adds_latency () =
  let cfg =
    let c = Tutil.small_config () in
    { c with Config.fs = { c.Config.fs with group_commit_timeout_s = 0.02 } }
  in
  let m, _fs, v, _ = mk_env ~cfg () in
  let env2 =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:16
      ~log_path:"/gc.log" ()
  in
  let fd = v.Vfs.create "/gcdb" in
  let t0 = Clock.now m.Tutil.clock in
  let txn = Libtp.begin_txn env2 in
  Libtp.write_page env2 txn ~file:fd ~page:0 (page_with v 'G');
  Libtp.commit env2 txn;
  Alcotest.(check bool) "waited out the group-commit timeout" true
    (Clock.now m.Tutil.clock -. t0 >= 0.02);
  Alcotest.(check bool) "recorded" true
    (Stats.time m.Tutil.stats "log.group_commit_wait" >= 0.02)

let test_group_commit_size_skips_wait () =
  let cfg =
    let c = Tutil.small_config () in
    {
      c with
      Config.fs =
        { c.Config.fs with group_commit_timeout_s = 10.0; group_commit_size = 1 };
    }
  in
  let m, _fs, v, _ = mk_env ~cfg () in
  let env2 =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:16
      ~log_path:"/gc.log" ()
  in
  let fd = v.Vfs.create "/gcdb" in
  let t0 = Clock.now m.Tutil.clock in
  let txn = Libtp.begin_txn env2 in
  Libtp.write_page env2 txn ~file:fd ~page:0 (page_with v 'G');
  Libtp.commit env2 txn;
  (* With the group size already reached, no 10-second wait happens. *)
  Alcotest.(check bool) "no timeout wait" true (Clock.now m.Tutil.clock -. t0 < 5.0)

let test_checkpoint_truncates_log () =
  let m, _fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  for i = 0 to 9 do
    let txn = Libtp.begin_txn env in
    Libtp.write_page env txn ~file:fd ~page:i (page_with v 'x');
    Libtp.commit env txn
  done;
  let log_fd = v.Vfs.open_file "/wal.log" in
  let before = v.Vfs.size log_fd in
  Alcotest.(check bool) "log grew" true (before > 0);
  Libtp.checkpoint env;
  let after = v.Vfs.size log_fd in
  Alcotest.(check bool)
    (Printf.sprintf "log truncated (%d -> %d)" before after)
    true
    (after < before);
  ignore m

(* Crash recovery --------------------------------------------------------- *)

let test_recovery_redo () =
  let m, fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  Lfs.sync fs;
  let t1 = Libtp.begin_txn env in
  Libtp.write_page env t1 ~file:fd ~page:3 (page_with v 'R');
  Libtp.commit env t1;
  (* Committed but the data page never left the user pool: the log has it. *)
  let _fs, v, env = crash_recover m fs in
  let fd = v.Vfs.open_file "/db" in
  let t = Libtp.begin_txn env in
  Alcotest.(check char) "redo recovered committed data" 'R'
    (Bytes.get (Libtp.read_page env t ~file:fd ~page:3) 0);
  Libtp.commit env t

let test_recovery_undo_loser () =
  let m, fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  Lfs.sync fs;
  let t1 = Libtp.begin_txn env in
  Libtp.write_page env t1 ~file:fd ~page:0 (page_with v 'W');
  Libtp.commit env t1;
  (* A loser: updates logged and even flushed, but never committed. *)
  let t2 = Libtp.begin_txn env in
  Libtp.write_page env t2 ~file:fd ~page:0 (page_with v 'L');
  Logmgr.force (Libtp.log env) ~upto:(Logmgr.next_lsn (Libtp.log env) - 1);
  Bufpool.flush_all (Libtp.pool env);
  let _fs, v, env = crash_recover m fs in
  Alcotest.(check int) "one loser undone" 1 (Libtp.recovered_losers env);
  let fd = v.Vfs.open_file "/db" in
  let t = Libtp.begin_txn env in
  Alcotest.(check char) "loser rolled back" 'W'
    (Bytes.get (Libtp.read_page env t ~file:fd ~page:0) 0);
  Libtp.commit env t

let test_recovery_idempotent_after_clean_shutdown () =
  let m, fs, v, env = mk_env () in
  let fd = v.Vfs.create "/db" in
  let t1 = Libtp.begin_txn env in
  Libtp.write_page env t1 ~file:fd ~page:0 (page_with v 'Z');
  Libtp.commit env t1;
  Libtp.checkpoint env;
  Lfs.sync fs;
  let _fs, v, env = crash_recover m fs in
  Alcotest.(check int) "no losers" 0 (Libtp.recovered_losers env);
  let fd = v.Vfs.open_file "/db" in
  let t = Libtp.begin_txn env in
  Alcotest.(check char) "data intact" 'Z'
    (Bytes.get (Libtp.read_page env t ~file:fd ~page:0) 0);
  Libtp.commit env t

(* Randomized recovery property: run committed and uncommitted transactions
   over a small database, crash at a random point, recover, and check that
   exactly the committed values survive. *)
let prop_recovery_atomicity =
  Tutil.qtest ~count:25 "recovery keeps exactly committed state"
    QCheck2.Gen.(list_size (int_range 1 15) (pair (int_bound 4) (int_bound 255)))
    (fun writes ->
      let m, fs, v, env = mk_env () in
      let fd = v.Vfs.create "/db" in
      Lfs.sync fs;
      let committed = Hashtbl.create 8 in
      List.iteri
        (fun i (page, value) ->
          let txn = Libtp.begin_txn env in
          let b = page_with v (Char.chr value) in
          Libtp.write_page env txn ~file:fd ~page b;
          if i mod 3 = 2 then Libtp.abort env txn
          else begin
            Libtp.commit env txn;
            Hashtbl.replace committed page value
          end)
        writes;
      (* Crash without any orderly shutdown. *)
      let _fs, v, env = crash_recover m fs in
      let fd = v.Vfs.open_file "/db" in
      let txn = Libtp.begin_txn env in
      let ok =
        Hashtbl.fold
          (fun page value ok ->
            ok
            && Char.code (Bytes.get (Libtp.read_page env txn ~file:fd ~page) 0)
               = value)
          committed true
      in
      Libtp.commit env txn;
      ok)

(* Redo prefetch -------------------------------------------------------- *)

(* A LIBTP database on two striped LFS spindles with its log on an FFS
   spindle of its own, as in wal-mpl16: 48 pages written and
   checkpointed, then 20 committed one-page updates in scrambled page
   order, then a crash. Every call builds the same image. *)
let db_pages = 48

let updated_page i = i * 17 mod db_pages

let crashed_db ~cache_blocks =
  let cfg = Tutil.small_config () in
  let cfg =
    { cfg with Config.fs = { cfg.Config.fs with ndisks = 2; log_disk = true; cache_blocks } }
  in
  let m = Tutil.machine ~cfg () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let log_fs =
    Ffs.format (Diskset.log_disks m.Tutil.disks).(0) m.Tutil.clock m.Tutil.stats m.Tutil.cfg
  in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/db" in
  for p = 0 to db_pages - 1 do
    v.Vfs.write fd ~off:(p * bs) (Tutil.payload p bs)
  done;
  Lfs.sync fs;
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~log_vfss:[| Ffs.vfs log_fs |]
      ~pool_pages:64 ~checkpoint_every:1000 ~log_path:"/wal.log" ()
  in
  Libtp.checkpoint env;
  for i = 0 to 19 do
    let txn = Libtp.begin_txn env in
    Libtp.write_page env txn ~file:fd ~page:(updated_page i) (Tutil.payload (1000 + i) bs);
    Libtp.commit env txn
  done;
  Lfs.crash fs;
  Ffs.crash log_fs;
  m

(* Remount and reopen the environment, recording every read request
   the spindles serve during the reopen as (spindle, block, page): the
   database page whose checkpointed bytes the block holds, if any. With
   [~prefetch:false] the file system's prefetch does nothing. Returns
   the reads and the database's bytes after recovery. [timing] receives
   the prefetch's simulated time and the sum of the two data spindles'
   busy time over it. [under] says where the reopen runs: with no
   scheduler (the default), in a process of one, or with one attached
   but no process running. *)
let recover_db ?timing ?(under = `No_scheduler) m ~prefetch =
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let log_fs =
    Ffs.mount (Diskset.log_disks m.Tutil.disks).(0) m.Tutil.clock m.Tutil.stats m.Tutil.cfg
  in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let page_of = Hashtbl.create db_pages in
  for p = 0 to db_pages - 1 do
    Hashtbl.replace page_of (Bytes.to_string (Tutil.payload p bs)) p
  done;
  let v' = if prefetch then v else { v with Vfs.prefetch = (fun _ -> ()) } in
  let v' =
    match timing with
    | None -> v'
    | Some r ->
      let busy () =
        Stats.time m.Tutil.stats "disk0.busy" +. Stats.time m.Tutil.stats "disk1.busy"
      in
      {
        v' with
        Vfs.prefetch =
          (fun blocks ->
            let t0 = Clock.now m.Tutil.clock and b0 = busy () in
            v'.Vfs.prefetch blocks;
            r := (Clock.now m.Tutil.clock -. t0, busy () -. b0));
      }
  in
  let reopen () =
    ignore
      (Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v' ~log_vfss:[| Ffs.vfs log_fs |]
         ~pool_pages:64 ~checkpoint_every:1000 ~log_path:"/wal.log" ())
  in
  let attached f =
    let s = Sched.create m.Tutil.clock in
    Fun.protect ~finally:(fun () -> Sched.detach s) (fun () -> f s)
  in
  let (), reads =
    Tutil.tagged_reads m.Tutil.disks page_of (fun () ->
        match under with
        | `No_scheduler -> reopen ()
        | `Process ->
          attached (fun s ->
              Sched.spawn s reopen;
              Sched.run s)
        | `Attached -> attached (fun _ -> reopen ()))
  in
  (reads, v.Vfs.read (v.Vfs.open_file "/db") ~off:0 ~len:(db_pages * bs))

(* Per spindle, the block numbers of the database pages read, in
   request order. *)
let page_reads_by_spindle reads =
  List.sort_uniq compare (List.map (fun (name, _, _) -> name) reads)
  |> List.map (fun name ->
         List.filter_map
           (fun (n, blk, page) -> if n = name && page <> None then Some blk else None)
           reads)

let rec ascending = function a :: (b :: _ as rest) -> a < b && ascending rest | _ -> true

(* Recovery prefetches the redo pages: with room for them all, it reads
   each once, in ascending address order on each spindle, where redo
   alone reads them in log order. With a cache smaller than the redo
   set it reads no more blocks than redo alone. Either way the recovered
   bytes are those of a recovery without the prefetch. *)
let recovered_db () =
  let bs = (Tutil.small_config ()).Config.disk.block_size in
  let expected = Bytes.concat Bytes.empty (List.init db_pages (fun p -> Tutil.payload p bs)) in
  for i = 0 to 19 do
    Bytes.blit (Tutil.payload (1000 + i) bs) 0 expected (updated_page i * bs) bs
  done;
  expected

let test_recovery_prefetch () =
  let expected = recovered_db () in
  let reads, bytes = recover_db (crashed_db ~cache_blocks:128) ~prefetch:true in
  let pages = List.filter_map (fun (_, _, p) -> p) reads in
  Alcotest.(check (list int)) "each redo page read once"
    (List.sort_uniq compare (List.init 20 updated_page))
    (List.sort compare pages);
  Alcotest.(check bool) "ascending on each spindle" true
    (List.for_all ascending (page_reads_by_spindle reads));
  Alcotest.(check bool) "read from both spindles" true
    (List.length (List.filter (( <> ) []) (page_reads_by_spindle reads)) = 2);
  Tutil.check_bytes "recovered bytes" expected bytes;
  let reads', bytes' = recover_db (crashed_db ~cache_blocks:128) ~prefetch:false in
  Alcotest.(check bool) "redo alone reads out of order" false
    (List.for_all ascending (page_reads_by_spindle reads'));
  Tutil.check_bytes "same bytes without the prefetch" bytes' bytes;
  let small, small_bytes = recover_db (crashed_db ~cache_blocks:8) ~prefetch:true in
  let small', small_bytes' = recover_db (crashed_db ~cache_blocks:8) ~prefetch:false in
  Alcotest.(check bool)
    (Printf.sprintf "small cache: %d reads, %d without the prefetch" (List.length small)
       (List.length small'))
    true
    (List.length small <= List.length small');
  Tutil.check_bytes "small cache: recovered bytes" expected small_bytes;
  Tutil.check_bytes "small cache: same bytes without the prefetch" small_bytes' small_bytes;
  (* The prefetch's reads run at once: each spindle serves its share
     while the other works, so the prefetch takes less simulated time
     than the two spindles were busy. *)
  let timing = ref (0.0, 0.0) in
  ignore (recover_db ~timing (crashed_db ~cache_blocks:128) ~prefetch:true);
  let elapsed, busy = !timing in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch %.4f s under the spindles' %.4f s busy" elapsed busy)
    true (elapsed < busy)

(* Inside a process the prefetch's reads overlap as they do with no
   scheduler. With a scheduler attached but no process running, they
   run one after another: the prefetch takes as long as the two
   spindles were busy. Either way each redo page is read once, in
   ascending order on each spindle, and the bytes come back. *)
let test_prefetch_under_a_scheduler () =
  let expected = recovered_db () in
  List.iter
    (fun (name, under, overlapped) ->
      let timing = ref (0.0, 0.0) in
      let reads, bytes = recover_db ~timing ~under (crashed_db ~cache_blocks:128) ~prefetch:true in
      let pages = List.filter_map (fun (_, _, p) -> p) reads in
      Alcotest.(check (list int)) (name ^ ": each redo page read once")
        (List.sort_uniq compare (List.init 20 updated_page))
        (List.sort compare pages);
      Alcotest.(check bool) (name ^ ": ascending on each spindle") true
        (List.for_all ascending (page_reads_by_spindle reads));
      Tutil.check_bytes (name ^ ": recovered bytes") expected bytes;
      let elapsed, busy = !timing in
      Alcotest.(check bool)
        (Printf.sprintf "%s: prefetch %.4f s, spindles busy %.4f s" name elapsed busy)
        overlapped
        (elapsed < busy -. 1e-9))
    [ ("in a process", `Process, true); ("attached, no process", `Attached, false) ]

(* The power fails under a scheduler while a process waits on a queued
   read of each data spindle: the scheduler is abandoned with the
   spindles' servers and the readers parked in it. Recovery's prefetch
   then queues its reads on the same spindles under a scheduler of its
   own, and they must still be served. *)
let test_prefetch_after_crash_with_queued_reads () =
  let m = crashed_db ~cache_blocks:128 in
  let spindles =
    List.filter (fun (name, _) -> name = "disk0" || name = "disk1")
      (Diskset.members m.Tutil.disks)
  in
  Alcotest.(check int) "two data spindles" 2 (List.length spindles);
  let sched = Sched.create m.Tutil.clock in
  List.iter
    (fun (_, d) ->
      Sched.spawn sched (fun () -> Disk.read_async d 100 (Bytes.create (Disk.block_size d))))
    spindles;
  Sched.spawn sched (fun () ->
      Sched.delay sched 1e-4;
      raise Exit);
  (match Sched.run sched with
  | () -> Alcotest.fail "the scheduler ended before the power failure"
  | exception Exit -> ());
  Sched.detach sched;
  Alcotest.(check bool) "a read parked on each spindle" true
    (List.for_all (fun (_, d) -> Disk.queue_depth d > 0) spindles);
  let reads, bytes = recover_db m ~prefetch:true in
  Alcotest.(check bool) "prefetch read from both spindles" true
    (List.length (List.filter (( <> ) []) (page_reads_by_spindle reads)) = 2);
  Tutil.check_bytes "recovered bytes" (recovered_db ()) bytes

(* Truncate vs. force interleaving ---------------------------------------- *)

(* Regression: Logmgr.truncate used to ignore the force serialization —
   a checkpoint's truncate racing a commit force parked in its
   write/fsync could reset [flushed] under the force and resurrect the
   just-truncated bytes. Two fibers on the deterministic scheduler pin
   the interleaving: the truncator arrives while the forcer is parked on
   the log disk, and must wait the force out. *)
let test_truncate_waits_for_force () =
  let m = Tutil.machine () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let log =
    Logmgr.open_log m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~path:"/trunc"
  in
  let big byte =
    {
      Logrec.txn = 1;
      prev = Logrec.null_lsn;
      body =
        Logrec.Update
          {
            file = 1;
            page = 0;
            off = 0;
            pstream = -1;
            plsn = Logrec.null_lsn;
            before = Bytes.make (2 * v.Vfs.block_size) byte;
            after = Bytes.make (2 * v.Vfs.block_size) byte;
          };
    }
  in
  let sched = Sched.create m.Tutil.clock in
  let force_done = ref false in
  let truncated_during_force = ref false in
  Sched.spawn sched (fun () ->
      let lsn = Logmgr.append log (big 'a') in
      Logmgr.force log ~upto:lsn;
      force_done := true);
  Sched.spawn sched (fun () ->
      (* Arrive while the force above is parked in its disk write. *)
      Sched.yield sched;
      Logmgr.truncate log;
      if not !force_done then truncated_during_force := true);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check bool) "truncate waited out the in-flight force" false
    !truncated_during_force;
  Alcotest.(check int) "one truncation" 1
    (Stats.count m.Tutil.stats "log.truncations");
  Alcotest.(check int) "log reset" 0 (Logmgr.flushed_lsn log);
  (* The log still works from a clean slate. *)
  let lsn = Logmgr.append log (big 'b') in
  Logmgr.force log ~upto:lsn;
  Alcotest.(check int) "one record after truncate" 1
    (List.length (List.of_seq (Logmgr.read_from log 0)))

(* Multi-stream WAL ------------------------------------------------------- *)

let streams_cfg n =
  let cfg = Tutil.small_config () in
  { cfg with Config.fs = { cfg.Config.fs with Config.log_streams = n } }

(* Commits spread across three streams, cross-stream overwrites of one
   page (exercising the vector-LSN dependency tracking), one loser whose
   stream was forced — recovery must merge the streams, redo the
   committed writes in dependency order and undo the loser. *)
let test_multi_stream_commit_recover () =
  let m, fs, v, env = mk_env ~cfg:(streams_cfg 3) () in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " exists") true (v.Vfs.exists p))
    [ "/wal.log.0"; "/wal.log.1"; "/wal.log.2" ];
  let fd = v.Vfs.create "/db" in
  Lfs.sync fs;
  (* Six serial transactions: consecutive ids land on different streams,
     and every one overwrites page 0, so each commit carries a
     cross-stream dependency on its predecessor. *)
  for i = 0 to 5 do
    let txn = Libtp.begin_txn env in
    Libtp.write_page env txn ~file:fd ~page:0 (page_with v (Char.chr (65 + i)));
    Libtp.write_page env txn ~file:fd ~page:(1 + (i mod 3)) (page_with v 'p');
    Libtp.commit env txn
  done;
  Alcotest.(check bool) "cross-stream deps tracked" true
    (Stats.count m.Tutil.stats "log.dep_checks" > 0);
  (* A loser: updates flushed on its own stream, commit never logged. *)
  let loser = Libtp.begin_txn env in
  Libtp.write_page env loser ~file:fd ~page:0 (page_with v '!');
  let logs = Libtp.logs env in
  let lm = Logset.get logs (Logset.stream_of_txn logs (Libtp.txn_id loser)) in
  Logmgr.force lm ~upto:(Logmgr.next_lsn lm - 1);
  let _fs, v, env = crash_recover m fs in
  Alcotest.(check int) "loser undone" 1 (Libtp.recovered_losers env);
  let fd = v.Vfs.open_file "/db" in
  let t = Libtp.begin_txn env in
  Alcotest.(check char) "last committed write wins across streams" 'F'
    (Bytes.get (Libtp.read_page env t ~file:fd ~page:0) 0);
  Libtp.commit env t

(* A stream count below one is a bad configuration, not one stream. *)
let test_zero_streams_rejected () =
  match mk_env ~cfg:(streams_cfg 0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 log streams accepted"

(* Randomized multi-stream crash prefixes. A real crash can only lose a
   suffix of each stream; with a serial workload (each transaction
   forces its stream at commit before the next begins) the reachable
   durable states are exactly: every record of the first K transactions,
   plus a prefix of transaction K+1's records on its own stream.
   Arbitrary independent per-stream cuts would manufacture states no
   crash can produce — a durable commit whose cross-stream dependency
   was lost — so the generator cuts along that frontier and recovery
   must reproduce precisely the surviving committed writes. *)
let prop_multi_stream_crash_prefix =
  Tutil.qtest ~count:15 "multi-stream recovery replays any crash prefix"
    QCheck2.Gen.(
      tup4 (int_range 2 3)
        (list_size (int_range 1 12) (pair (int_bound 4) (int_range 1 255)))
        nat nat)
    (fun (ns, writes, kseed, pseed) ->
      let cfg = streams_cfg ns in
      let m = Tutil.machine ~cfg () in
      let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
      let v = Lfs.vfs fs in
      let env =
        Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:64
          ~checkpoint_every:100_000 ~log_path:"/wal.log" ()
      in
      let fd = v.Vfs.create "/db" in
      Lfs.sync fs;
      let history = ref [] in
      List.iter
        (fun (page, value) ->
          let txn = Libtp.begin_txn env in
          Libtp.write_page env txn ~file:fd ~page (page_with v (Char.chr value));
          Libtp.commit env txn;
          history := (Libtp.txn_id txn, page, value) :: !history)
        writes;
      let history = List.rev !history in
      let ids = List.map (fun (id, _, _) -> id) history in
      let k = kseed mod (List.length ids + 1) in
      let full = List.filteri (fun i _ -> i < k) ids in
      let partial = List.nth_opt ids k in
      Lfs.crash fs;
      let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
      let v = Lfs.vfs fs in
      let winners = Hashtbl.create 8 in
      List.iter (fun id -> Hashtbl.replace winners id ()) full;
      for s = 0 to ns - 1 do
        let lfd = v.Vfs.open_file (Printf.sprintf "/wal.log.%d" s) in
        let size = v.Vfs.size lfd in
        let buf =
          if size = 0 then Bytes.empty else v.Vfs.read lfd ~off:0 ~len:size
        in
        (* Record boundaries on this stream, in append order. *)
        let recs = ref [] in
        let off = ref 0 in
        let scanning = ref true in
        while !scanning do
          match Logrec.decode buf !off with
          | Some (r, next) ->
            recs := (r.Logrec.txn, next) :: !recs;
            off := next
          | None -> scanning := false
        done;
        let recs = List.rev !recs in
        (* How much of the partial transaction to keep: only its own
           stream holds its records. Keeping all of them makes it a
           winner after all. *)
        let keep_partial =
          match partial with
          | None -> 0
          | Some id ->
            let own = List.length (List.filter (fun (t, _) -> t = id) recs) in
            let j = if own = 0 then 0 else pseed mod (own + 1) in
            if j = own && own > 0 then Hashtbl.replace winners id ();
            j
        in
        (* Cut at the last record of the kept prefix: checkpoint records
           (txn 0) and fully-kept transactions, then [keep_partial]
           records of the partial one. *)
        let cut = ref 0 in
        let kept = ref 0 in
        let stop = ref false in
        List.iter
          (fun (t, endoff) ->
            if not !stop then
              if t = 0 || List.mem t full then cut := endoff
              else if partial = Some t && !kept < keep_partial then begin
                incr kept;
                cut := endoff
              end
              else stop := true)
          recs;
        v.Vfs.truncate lfd !cut
      done;
      let env =
        Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:64
          ~checkpoint_every:100_000 ~log_path:"/wal.log" ()
      in
      ignore (Libtp.recovered_losers env);
      let fd = v.Vfs.open_file "/db" in
      (* Oracle: the last surviving committed write per page; pages were
         never written back before the crash, so everything else is
         zero. *)
      let expect = Hashtbl.create 8 in
      List.iter
        (fun (id, page, value) ->
          if Hashtbl.mem winners id then Hashtbl.replace expect page value)
        history;
      let txn = Libtp.begin_txn env in
      let ok = ref true in
      for page = 0 to 4 do
        let got =
          Char.code (Bytes.get (Libtp.read_page env txn ~file:fd ~page) 0)
        in
        let want = Option.value (Hashtbl.find_opt expect page) ~default:0 in
        if got <> want then ok := false
      done;
      Libtp.commit env txn;
      !ok)

(* Recovery replays each page once: its redo records in merged order,
   then its losers' before-images newest first. Random serial
   transactions over four pages and one to three log streams write
   short byte runs; some commit, some abort, and up to two are left
   open on disjoint pages with their streams forced (losers), their
   pages written back or not. After a crash the recovered pages must
   equal a model that walks the merged log once, redoing every update
   in order and then undoing the losers' updates newest first, and
   recovery must take one pool latch per page it replays. With
   FAULTSIM_FULL set, ten times the cases. *)
let prop_page_grouped_redo =
  let pages = 4 in
  let write = QCheck2.Gen.(triple (int_bound (pages - 1)) (int_bound 63) (int_range 1 255)) in
  let writes = QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 3) write in
  let full = Sys.getenv_opt "FAULTSIM_FULL" <> None in
  Tutil.qtest ~count:(if full then 1000 else 100) "page-grouped redo equals merged-order redo"
    QCheck2.Gen.(
      tup4 (int_range 1 3)
        (list_size (int_range 1 12) (pair writes (int_bound 2)))
        (list_size (int_bound 2) writes)
        bool)
    (fun (ns, txns, losers, write_back) ->
      let cfg = streams_cfg ns in
      let m = Tutil.machine ~cfg () in
      let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
      let v = Lfs.vfs fs in
      let open_env v =
        Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:64
          ~checkpoint_every:100_000 ~log_path:"/wal.log" ()
      in
      let env = open_env v in
      let fd = v.Vfs.create "/db" in
      Lfs.sync fs;
      let bs = v.Vfs.block_size in
      (* Each write sets up to eight bytes at a 64-byte slot of a page. *)
      let run txn ~page_of ws =
        List.iter
          (fun (page, slot, value) ->
            let page = page_of page in
            let b = Bytes.copy (Libtp.read_page env txn ~file:fd ~page) in
            Bytes.fill b (slot * 64) (1 + (value mod 8)) (Char.chr value);
            Libtp.write_page env txn ~file:fd ~page b)
          ws
      in
      List.iter
        (fun (ws, outcome) ->
          let txn = Libtp.begin_txn env in
          run txn ~page_of:Fun.id ws;
          if outcome = 2 then Libtp.abort env txn else Libtp.commit env txn)
        txns;
      (* Loser [i] keeps to pages [i] and [i + 2], so the two never
         meet on a lock. *)
      List.iteri
        (fun i ws ->
          let txn = Libtp.begin_txn env in
          run txn ~page_of:(fun p -> i + (2 * (p mod 2))) ws;
          let logs = Libtp.logs env in
          let lm = Logset.get logs (Logset.stream_of_txn logs (Libtp.txn_id txn)) in
          Logmgr.force lm ~upto:(Logmgr.next_lsn lm - 1))
        losers;
      if write_back then Bufpool.flush_all (Libtp.pool env);
      Lfs.crash fs;
      let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
      let v = Lfs.vfs fs in
      let fd = v.Vfs.open_file "/db" in
      let page_bytes page =
        let b = Bytes.make bs '\000' in
        let got = v.Vfs.read fd ~off:(page * bs) ~len:bs in
        Bytes.blit got 0 b 0 (Bytes.length got);
        b
      in
      (* The model: one pass over the merged log. *)
      let model = Array.init pages page_bytes in
      let merged =
        Logset.merged_records
          (Logset.create m.Tutil.clock m.Tutil.stats m.Tutil.cfg ~homes:[| v |]
             ~path:"/wal.log")
      in
      let begun = Hashtbl.create 8 and finished = Hashtbl.create 8 in
      let touched = Hashtbl.create 8 in
      List.iter
        (fun (_, _, r) ->
          match r.Logrec.body with
          | Logrec.Begin -> Hashtbl.replace begun r.Logrec.txn ()
          | Logrec.Commit _ | Logrec.Abort _ -> Hashtbl.replace finished r.Logrec.txn ()
          | Logrec.Update { page; _ } -> Hashtbl.replace touched page ()
          | _ -> ())
        merged;
      let loser txn = Hashtbl.mem begun txn && not (Hashtbl.mem finished txn) in
      List.iter
        (fun (_, _, r) ->
          match r.Logrec.body with
          | Logrec.Update { page; off; after; _ } ->
            Bytes.blit after 0 model.(page) off (Bytes.length after)
          | _ -> ())
        merged;
      List.iter
        (fun (_, _, r) ->
          match r.Logrec.body with
          | Logrec.Update { page; off; before; _ } when loser r.Logrec.txn ->
            Bytes.blit before 0 model.(page) off (Bytes.length before)
          | _ -> ())
        (List.rev merged);
      let latches0 = Stats.count m.Tutil.stats "cpu.user_mutex.n" in
      ignore (open_env v);
      let latches = Stats.count m.Tutil.stats "cpu.user_mutex.n" - latches0 in
      if latches <> Hashtbl.length touched then
        QCheck2.Test.fail_reportf "%d pool latches for %d pages replayed" latches
          (Hashtbl.length touched);
      List.for_all (fun page -> Bytes.equal model.(page) (page_bytes page))
        (List.init pages Fun.id))

(* The word-at-a-time page diff must find exactly the range a byte-by-
   byte scan finds: it decides what every update record logs. *)
let prop_diff_range =
  let reference a b =
    let n = Bytes.length a in
    let lo = ref 0 in
    while !lo < n && Bytes.get a !lo = Bytes.get b !lo do
      incr lo
    done;
    if !lo = n then None
    else begin
      let hi = ref (n - 1) in
      while Bytes.get a !hi = Bytes.get b !hi do
        decr hi
      done;
      Some (!lo, !hi - !lo + 1)
    end
  in
  Tutil.qtest ~count:500 "diff_range matches a byte-by-byte scan"
    QCheck2.Gen.(
      pair (int_range 0 200) (list_size (int_bound 4) (pair (int_bound 199) char)))
    (fun (n, edits) ->
      let a = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
      let b = Bytes.copy a in
      List.iter (fun (i, c) -> if i < n then Bytes.set b i c) edits;
      Libtp.diff_range a b = reference a b)

let () =
  Alcotest.run "tx_wal"
    [
      ( "logrec",
        [
          Alcotest.test_case "roundtrip" `Quick test_logrec_roundtrip;
          Alcotest.test_case "torn/corrupt" `Quick test_logrec_rejects_torn;
          prop_logrec_roundtrip;
        ] );
      ( "logmgr",
        [
          Alcotest.test_case "force and scan" `Quick test_logmgr_force_and_scan;
          Alcotest.test_case "reopen at end" `Quick
            test_logmgr_reopen_positions_at_end;
          Alcotest.test_case "incremental scan" `Quick test_logmgr_incremental_scan;
          Alcotest.test_case "truncate waits for force" `Quick
            test_truncate_waits_for_force;
          prop_logmgr_force_scan;
        ] );
      ( "txn",
        [
          Alcotest.test_case "commit visible" `Quick test_commit_visible;
          Alcotest.test_case "abort undoes" `Quick test_abort_undoes;
          Alcotest.test_case "2PL conflict" `Quick test_two_phase_locking_conflict;
          Alcotest.test_case "deadlock abort" `Quick test_deadlock_aborts_requester;
          Alcotest.test_case "conflict outside a process fails" `Quick
            test_conflict_outside_process_fails;
          Alcotest.test_case "no-op write" `Quick test_no_op_write_logs_nothing;
          prop_diff_range;
        ] );
      ( "pool",
        [
          Alcotest.test_case "WAL rule on eviction" `Quick test_wal_rule_on_eviction;
          Alcotest.test_case "group commit timeout" `Quick
            test_group_commit_timeout_adds_latency;
          Alcotest.test_case "group commit size" `Quick
            test_group_commit_size_skips_wait;
          Alcotest.test_case "checkpoint truncates log" `Quick
            test_checkpoint_truncates_log;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "redo" `Quick test_recovery_redo;
          Alcotest.test_case "undo loser" `Quick test_recovery_undo_loser;
          Alcotest.test_case "clean shutdown" `Quick
            test_recovery_idempotent_after_clean_shutdown;
          prop_recovery_atomicity;
          Alcotest.test_case "redo prefetch" `Quick test_recovery_prefetch;
          Alcotest.test_case "prefetch under a scheduler" `Quick
            test_prefetch_under_a_scheduler;
          Alcotest.test_case "prefetch after a crash with reads queued" `Quick
            test_prefetch_after_crash_with_queued_reads;
          prop_page_grouped_redo;
        ] );
      ( "multi-stream",
        [
          Alcotest.test_case "commit and recover across streams" `Quick
            test_multi_stream_commit_recover;
          Alcotest.test_case "0 streams rejected" `Quick test_zero_streams_rejected;
          prop_multi_stream_crash_prefix;
        ] );
    ]
