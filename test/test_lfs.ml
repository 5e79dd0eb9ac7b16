(* Tests for the log-structured file system: basic I/O, metadata layouts,
   the cleaner, checkpointing, crash recovery, and a model-based property
   test of random operation sequences. *)

let remount (m : Tutil.machine) fs =
  Lfs.crash fs;
  Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg

let test_create_write_read () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.create "/hello" in
  let data = Bytes.of_string "hello, log-structured world" in
  v.Vfs.write fd ~off:0 data;
  Tutil.check_bytes "read back" data (v.Vfs.read fd ~off:0 ~len:(Bytes.length data));
  Alcotest.(check int) "size" (Bytes.length data) (v.Vfs.size fd);
  Alcotest.(check bool) "exists" true (v.Vfs.exists "/hello");
  Alcotest.(check bool) "not exists" false (v.Vfs.exists "/other")

let test_multi_block_and_offsets () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/big" in
  let data = Tutil.payload 7 (5 * bs) in
  v.Vfs.write fd ~off:0 data;
  Tutil.check_bytes "full read" data (v.Vfs.read fd ~off:0 ~len:(5 * bs));
  (* Unaligned read spanning blocks. *)
  Tutil.check_bytes "unaligned"
    (Bytes.sub data (bs - 10) 50)
    (v.Vfs.read fd ~off:(bs - 10) ~len:50);
  (* Unaligned overwrite spanning a block boundary. *)
  let patch = Tutil.payload 8 100 in
  v.Vfs.write fd ~off:(2 * bs) data;
  v.Vfs.write fd ~off:((3 * bs) - 50) patch;
  Tutil.check_bytes "patched"
    patch
    (v.Vfs.read fd ~off:((3 * bs) - 50) ~len:100)

let test_holes_read_zero () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/sparse" in
  v.Vfs.write fd ~off:(10 * bs) (Bytes.of_string "tail");
  Alcotest.(check int) "size includes hole" ((10 * bs) + 4) (v.Vfs.size fd);
  let hole = v.Vfs.read fd ~off:bs ~len:bs in
  Alcotest.(check bool) "hole reads as zeros" true
    (Bytes.for_all (fun c -> c = '\000') hole)

let test_short_read_at_eof () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.create "/short" in
  v.Vfs.write fd ~off:0 (Bytes.of_string "abc");
  Alcotest.(check string) "short read" "bc"
    (Bytes.to_string (v.Vfs.read fd ~off:1 ~len:100));
  Alcotest.(check string) "read past eof" ""
    (Bytes.to_string (v.Vfs.read fd ~off:50 ~len:10))

let test_indirect_and_double_indirect () =
  let cfg = Tutil.small_config () in
  (* Bigger disk so a double-indirect file fits. *)
  let cfg =
    { cfg with
      Config.disk = { cfg.Config.disk with nblocks = 16384 };
      fs = { cfg.Config.fs with cache_blocks = 64 } }
  in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let per = bs / 4 in
  let fd = v.Vfs.create "/deep" in
  (* One block in each addressing regime: direct, single-indirect, and
     double-indirect territory. *)
  let direct = Tutil.payload 1 bs in
  let single = Tutil.payload 2 bs in
  let dbl = Tutil.payload 3 bs in
  v.Vfs.write fd ~off:0 direct;
  v.Vfs.write fd ~off:(20 * bs) single;
  v.Vfs.write fd ~off:((12 + (2 * per)) * bs) dbl;
  let check () =
    let v = Lfs.vfs fs in
    Tutil.check_bytes "direct" direct (v.Vfs.read fd ~off:0 ~len:bs);
    Tutil.check_bytes "single indirect" single (v.Vfs.read fd ~off:(20 * bs) ~len:bs);
    Tutil.check_bytes "double indirect" dbl
      (v.Vfs.read fd ~off:((12 + (2 * per)) * bs) ~len:bs)
  in
  check ();
  v.Vfs.sync ();
  let fs = remount m fs in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.open_file "/deep" in
  Tutil.check_bytes "direct after remount" direct (v.Vfs.read fd ~off:0 ~len:bs);
  Tutil.check_bytes "single after remount" single
    (v.Vfs.read fd ~off:(20 * bs) ~len:bs);
  Tutil.check_bytes "double after remount" dbl
    (v.Vfs.read fd ~off:((12 + (2 * per)) * bs) ~len:bs)

let test_truncate () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/t" in
  let data = Tutil.payload 4 (4 * bs) in
  v.Vfs.write fd ~off:0 data;
  v.Vfs.truncate fd bs;
  Alcotest.(check int) "shrunk" bs (v.Vfs.size fd);
  Tutil.check_bytes "prefix kept" (Bytes.sub data 0 bs) (v.Vfs.read fd ~off:0 ~len:bs);
  (* Growing again reads zeros where old data used to be. *)
  v.Vfs.truncate fd (2 * bs);
  let z = v.Vfs.read fd ~off:bs ~len:bs in
  Alcotest.(check bool) "zeros after regrow" true
    (Bytes.for_all (fun c -> c = '\000') z)

let test_directories () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  v.Vfs.mkdir "/docs";
  v.Vfs.mkdir "/docs/old";
  let fd = v.Vfs.create "/docs/readme" in
  v.Vfs.write fd ~off:0 (Bytes.of_string "hi");
  Alcotest.(check (list string)) "listing" [ "old"; "readme" ]
    (List.sort compare (List.map fst (v.Vfs.readdir "/docs")));
  let st = v.Vfs.stat "/docs/readme" in
  Alcotest.(check int) "stat size" 2 st.Vfs.size;
  Alcotest.(check bool) "stat kind" true (st.Vfs.kind = Vfs.File);
  v.Vfs.remove "/docs/readme";
  v.Vfs.remove "/docs/old";
  v.Vfs.remove "/docs";
  Alcotest.(check bool) "all gone" false (v.Vfs.exists "/docs")

let test_protected_attribute () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let _ = v.Vfs.create "/db" in
  Alcotest.(check bool) "default unprotected" false (v.Vfs.stat "/db").Vfs.protected_;
  v.Vfs.set_protected "/db" true;
  Alcotest.(check bool) "set" true (v.Vfs.stat "/db").Vfs.protected_;
  v.Vfs.sync ();
  let fs = remount m fs in
  let v = Lfs.vfs fs in
  Alcotest.(check bool) "persists across remount" true
    (v.Vfs.stat "/db").Vfs.protected_

let test_sync_remount_preserves () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let files =
    List.init 10 (fun i ->
        let path = Printf.sprintf "/f%d" i in
        let data = Tutil.payload i ((i + 1) * 500) in
        let fd = v.Vfs.create path in
        v.Vfs.write fd ~off:0 data;
        (path, data))
  in
  ignore bs;
  v.Vfs.sync ();
  let fs = remount m fs in
  let v = Lfs.vfs fs in
  List.iter
    (fun (path, data) ->
      let fd = v.Vfs.open_file path in
      Tutil.check_bytes path data (v.Vfs.read fd ~off:0 ~len:(Bytes.length data)))
    files

let test_fsync_then_crash () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let data = Tutil.payload 9 10_000 in
  let fd = v.Vfs.create "/durable" in
  (* Persist the namespace first — fsync covers file data, not the parent
     directory, exactly as in UNIX. *)
  v.Vfs.sync ();
  v.Vfs.write fd ~off:0 data;
  v.Vfs.fsync fd;
  (* Crash without a checkpoint: recovery must roll forward. *)
  let fs = remount m fs in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.open_file "/durable" in
  Tutil.check_bytes "rolled forward" data
    (v.Vfs.read fd ~off:0 ~len:(Bytes.length data))

let test_unsynced_data_lost_cleanly () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.create "/a" in
  v.Vfs.write fd ~off:0 (Bytes.of_string "persisted");
  v.Vfs.sync ();
  let fd2 = v.Vfs.create "/volatile" in
  v.Vfs.write fd2 ~off:0 (Bytes.of_string "in cache only");
  v.Vfs.write fd ~off:0 (Bytes.of_string "PERSISTED");
  (* no sync *)
  let fs = remount m fs in
  let v = Lfs.vfs fs in
  Alcotest.(check bool) "unsynced create lost" false (v.Vfs.exists "/volatile");
  let fd = v.Vfs.open_file "/a" in
  Alcotest.(check string) "old contents intact" "persisted"
    (Bytes.to_string (v.Vfs.read fd ~off:0 ~len:100))

let test_crash_raises () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.create "/x" in
  Lfs.crash fs;
  Alcotest.check_raises "ops raise after crash" Lfs.Crashed (fun () ->
      ignore (v.Vfs.read fd ~off:0 ~len:1))

let test_cleaner_reclaims_and_preserves () =
  let cfg = Tutil.small_config () in
  let cfg = { cfg with Config.disk = { cfg.Config.disk with nblocks = 1024 } } in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  (* Persistent file that must survive all cleaning. *)
  let keep = Tutil.payload 42 (8 * bs) in
  let kfd = v.Vfs.create "/keep" in
  v.Vfs.write kfd ~off:0 keep;
  v.Vfs.sync ();
  (* Churn: repeatedly overwrite a scratch file, generating dead segments
     until the cleaner has to run. *)
  let sfd = v.Vfs.create "/scratch" in
  for round = 0 to 80 do
    let data = Tutil.payload round (16 * bs) in
    v.Vfs.write sfd ~off:0 data;
    v.Vfs.fsync sfd
  done;
  Alcotest.(check bool) "cleaner ran" true
    (Stats.count m.Tutil.stats "cleaner.segments"
     + Stats.count m.Tutil.stats "cleaner.reclaimed_dead"
    > 0);
  Alcotest.(check bool) "free segments available" true (Lfs.free_segments fs > 0);
  Tutil.check_bytes "survivor intact" keep (v.Vfs.read kfd ~off:0 ~len:(8 * bs));
  (* And after a crash+remount everything still checks out. *)
  v.Vfs.sync ();
  let fs = remount m fs in
  let v = Lfs.vfs fs in
  let kfd = v.Vfs.open_file "/keep" in
  Tutil.check_bytes "survivor intact after remount" keep
    (v.Vfs.read kfd ~off:0 ~len:(8 * bs))

let test_no_space () =
  let cfg = Tutil.small_config () in
  let cfg =
    {
      cfg with
      Config.disk = { cfg.Config.disk with nblocks = 512 };
      fs =
        {
          cfg.Config.fs with
          cleaner_low_segments = 2;
          cleaner_high_segments = 3;
        };
    }
  in
  let _, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.create "/huge" in
  Alcotest.(check bool) "fills up" true
    (match
       for i = 0 to 1000 do
         v.Vfs.write fd ~off:(i * v.Vfs.block_size)
           (Tutil.payload i v.Vfs.block_size);
         if i mod 8 = 0 then v.Vfs.fsync fd
       done
     with
    | exception Vfs.Error (Vfs.No_space, _) -> true
    | () -> false)

let test_consistency_check_after_activity () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let rng = Rng.create ~seed:12 in
  for i = 0 to 14 do
    let fd = v.Vfs.create (Printf.sprintf "/f%d" i) in
    v.Vfs.write fd ~off:0 (Tutil.payload i (1 + Rng.int rng 30_000))
  done;
  for round = 0 to 30 do
    let p = Printf.sprintf "/f%d" (Rng.int rng 15) in
    if v.Vfs.exists p then begin
      let fd = v.Vfs.open_file p in
      v.Vfs.write fd ~off:(Rng.int rng 20_000) (Tutil.payload round 5_000)
    end
  done;
  Lfs.sync fs;
  Lfs.check fs;
  (* And after a crash + remount the recovered state is consistent too. *)
  let fs = remount m fs in
  Lfs.check fs

let test_coalesce_restores_contiguity () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/frag" in
  (* Sequential load... *)
  for i = 0 to 63 do
    v.Vfs.write fd ~off:(i * bs) (Tutil.payload i bs)
  done;
  Lfs.sync fs;
  let inum = Lfs.inum_of fs "/frag" in
  (* ...then random updates scatter it across segments. *)
  let expected = Array.init 64 (fun i -> Tutil.payload i bs) in
  let rng = Rng.create ~seed:5 in
  for r = 0 to 119 do
    let blk = Rng.int rng 64 in
    let data = Tutil.payload (1000 + r) bs in
    v.Vfs.write fd ~off:(blk * bs) data;
    expected.(blk) <- data;
    if r mod 10 = 0 then v.Vfs.fsync fd
  done;
  Lfs.sync fs;
  let before = Lfs.contiguity fs inum in
  Alcotest.(check bool)
    (Printf.sprintf "fragmented after random updates (%.2f)" before)
    true (before < 0.9);
  (* The Section 5.4 coalescing cleaner restores sequential layout. *)
  Lfs.coalesce_file fs inum;
  Lfs.sync fs;
  let after = Lfs.contiguity fs inum in
  Alcotest.(check bool)
    (Printf.sprintf "coalesced back to sequential (%.2f)" after)
    true (after > 0.95);
  (* Contents unchanged: the last write to each block wins. *)
  Lfs.check fs;
  Array.iteri
    (fun i data ->
      Tutil.check_bytes
        (Printf.sprintf "block %d after coalesce" i)
        data
        (v.Vfs.read fd ~off:(i * bs) ~len:bs))
    expected

let test_coalesce_all_counts () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  for i = 0 to 4 do
    let fd = v.Vfs.create (Printf.sprintf "/c%d" i) in
    v.Vfs.write fd ~off:0 (Tutil.payload i (4 * bs))
  done;
  let fd1 = v.Vfs.create "/single" in
  v.Vfs.write fd1 ~off:0 (Bytes.of_string "tiny");
  Lfs.sync fs;
  Alcotest.(check int) "multi-block files rewritten" 5 (Lfs.coalesce_all fs);
  Lfs.check fs

let test_crash_after_cleaning_before_checkpoint () =
  (* Segments cleaned since the last checkpoint must not be reused until
     a checkpoint makes the relocation durable; a crash in that window
     must recover cleanly from the old checkpoint. *)
  let cfg = Tutil.small_config () in
  let cfg = { cfg with Config.disk = { cfg.Config.disk with nblocks = 2048 } } in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let keep = Tutil.payload 1 50_000 in
  let kfd = v.Vfs.create "/keep" in
  v.Vfs.write kfd ~off:0 keep;
  v.Vfs.sync ();
  (* Generate dead segments. *)
  let sfd = v.Vfs.create "/churn" in
  for round = 0 to 30 do
    v.Vfs.write sfd ~off:0 (Tutil.payload round 40_000);
    v.Vfs.fsync sfd
  done;
  v.Vfs.sync ();
  (* Clean one victim but crash before any checkpoint. *)
  Alcotest.(check bool) "cleaned one" true (Lfs.clean_once fs);
  Lfs.crash fs;
  let fs = remount m fs in
  Lfs.check fs;
  let v = Lfs.vfs fs in
  let kfd = v.Vfs.open_file "/keep" in
  Tutil.check_bytes "contents intact" keep (v.Vfs.read kfd ~off:0 ~len:50_000)

let full = Sys.getenv_opt "FAULTSIM_FULL" <> None

(* Mount takes the live counts from the checkpointed usage table, so
   every checkpoint must write a table that counts exactly the blocks its
   inode map reaches, and roll-forward must move the counts of what it
   replays. A random run of file operations, transaction-owned pages and
   their commit flushes (deferred metadata), checkpoints, syncer and
   cleaner passes is cut at a random block write (Faultsim tears a
   multi-block request there); the mounted file system must pass
   [Lfs.check], which recounts usage from reachability. With
   FAULTSIM_FULL set, ten times the cases. *)
let prop_crash_trusted_usage =
  let files = 2 in
  let file = QCheck2.Gen.int_bound (files - 1) in
  (* Two transactions, so one can commit while the other owns pages of
     the same file. *)
  let txn = QCheck2.Gen.int_range 1 2 in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (3, map (fun f -> `Create f) file);
          ( 3,
            map3
              (fun f off n -> `Write (f, off, n))
              file
              (oneof [ int_bound 20; int_range 1030 1040 ])
              (int_range 1 3) );
          (1, map (fun f -> `Fsync f) file);
          (1, map (fun f -> `Remove f) file);
          (6, map3 (fun x f p -> `Own (x, f, p)) txn file (int_bound 20));
          (3, map (fun x -> `Commit x) txn);
          (3, return `Checkpoint);
          (1, return `Syncer);
          (2, return `Clean);
        ])
  in
  (* Runs [ops] on a fresh file system, cutting the power after
     [crash_after] block writes if given; returns the machine and how
     many blocks were written. *)
  let run ?crash_after ops =
    let m, fs = Tutil.fresh_lfs () in
    let fault = Faultsim.arm ?crash_after m.Tutil.disks in
    let v = Lfs.vfs fs in
    let cache = Lfs.cache fs in
    let bs = v.Vfs.block_size in
    let path f = Printf.sprintf "/f%d" f in
    let on f g = if v.Vfs.exists (path f) then g (v.Vfs.open_file (path f)) in
    let owned_of inum =
      List.exists
        (fun x -> List.exists (fun fr -> fr.Cache.file = inum) (Cache.txn_frames cache x))
        [ 1; 2 ]
    in
    let apply = function
      | `Create f -> if not (v.Vfs.exists (path f)) then ignore (v.Vfs.create (path f))
      | `Write (f, off, n) ->
        on f (fun fd -> v.Vfs.write fd ~off:(off * bs) (Tutil.payload off (n * bs)))
      | `Fsync f -> on f v.Vfs.fsync
      | `Remove f ->
        if v.Vfs.exists (path f) && not (owned_of (Lfs.inum_of fs (path f))) then
          v.Vfs.remove (path f)
      | `Own (txn, f, p) ->
        if v.Vfs.exists (path f) && List.length (Cache.txn_frames cache txn) < 16 then begin
          (* What the embedded manager's page write does; a page the
             other transaction owns is locked against this one. *)
          let inum = Lfs.inum_of fs (path f) in
          let fr = Lfs.get_page fs ~inum ~lblock:p in
          if not (Cache.owned_by fr (3 - txn)) then begin
            Bytes.blit (Tutil.payload (100 + p) bs) 0 fr.Cache.data 0 bs;
            Lfs.page_dirty fs fr;
            Lfs.extend_to fs ~inum ((p + 1) * bs);
            Cache.own cache fr txn
          end
        end
      | `Commit txn ->
        (* The commit flush: the batch, released, with deferred
           metadata. *)
        let frames = Cache.txn_frames cache txn in
        List.iter (Cache.release cache) frames;
        if frames <> [] then Lfs.force_frames fs frames
      | `Checkpoint -> Lfs.checkpoint fs
      | `Syncer ->
        Clock.advance m.Tutil.clock (m.Tutil.cfg.Config.fs.syncer_interval_s +. 1.0);
        ignore (v.Vfs.exists "/")
      | `Clean -> ignore (Lfs.clean_once fs)
    in
    (try List.iter apply ops with Disk.Injected_crash -> ());
    Lfs.crash fs;
    Faultsim.disarm fault;
    (m, Faultsim.writes fault)
  in
  Tutil.qtest ~count:(if full then 3000 else 300) "crash: mount trusts the usage table"
    QCheck2.Gen.(pair (list_size (int_range 10 60) op) nat)
    (fun (ops, k) ->
      let _, total = run ops in
      (* A cut past the last write loses only volatile state. *)
      let m, _ = run ~crash_after:(k mod (total + 1)) ops in
      Lfs.check (Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg);
      true)

(* After a checkpoint, mount reads the metadata of no inode that
   roll-forward did not touch. Forty files, each with an indirect block,
   are synced one by one, so each has an inode block of its own; then a
   checkpoint, and one more write to /f0, fsynced. Mount may read /f0's
   inode and indirect blocks, but not those of /f1 to /f39. *)
let test_mount_reads_only_touched_inodes () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let path i = Printf.sprintf "/f%d" i in
  for i = 0 to 39 do
    let fd = v.Vfs.create (path i) in
    v.Vfs.write fd ~off:(Inode.ndirect * bs) (Tutil.payload i bs);
    v.Vfs.fsync fd
  done;
  Lfs.checkpoint fs;
  let fd = v.Vfs.open_file (path 0) in
  v.Vfs.write fd ~off:0 (Tutil.payload 99 bs);
  v.Vfs.fsync fd;
  let untouched = List.init 39 (fun i -> Lfs.inum_of fs (path (i + 1))) in
  Lfs.crash fs;
  (* Where the checkpoint's inode map puts the untouched inodes, and
     their indirect blocks, read off the platter. *)
  let d = m.Tutil.disk in
  let sb = Layout.read_superblock (Disk.peek d Layout.superblock_blkno) in
  let cp =
    let r0, r1 = Layout.checkpoint_blknos in
    match
      (Layout.read_checkpoint (Disk.peek d r0), Layout.read_checkpoint (Disk.peek d r1))
    with
    | Some a, Some b -> if a.Layout.cp_seq >= b.Layout.cp_seq then a else b
    | Some c, None | None, Some c -> c
    | None, None -> Alcotest.fail "no checkpoint"
  in
  let per_chunk = Layout.imap_per_chunk ~block_size:bs in
  let meta = Hashtbl.create 128 in
  List.iter
    (fun inum ->
      let chunk = inum / per_chunk in
      Layout.read_imap_chunk
        (Disk.peek d cp.Layout.imap_addrs.(chunk))
        ~chunk ~n:sb.Layout.max_inodes
        (fun i e ->
          if i = inum then begin
            Hashtbl.replace meta e.Layout.addr inum;
            let ino =
              Option.get
                (Inode.load ~block_size:bs ~read:(Disk.peek d) (Disk.peek d e.Layout.addr)
                   (e.Layout.slot * Layout.inode_size))
            in
            Inode.iter_block_addrs ino ~block_size:bs (fun kind _ addr ->
                if kind <> Inode.Data_block then Hashtbl.replace meta addr inum)
          end))
    untouched;
  Alcotest.(check int) "an inode block and an indirect block per file" (2 * 39)
    (Hashtbl.length meta);
  let read = ref [] in
  Disk.set_injector d
    (Some
       {
         Disk.on_write = (fun ~blkno:_ ~nblocks -> nblocks);
         on_read =
           (fun ~blkno ~nblocks ->
             for b = blkno to blkno + nblocks - 1 do
               Option.iter (fun inum -> read := (b, inum) :: !read) (Hashtbl.find_opt meta b)
             done;
             false);
       });
  let fs = Fun.protect ~finally:(fun () -> Disk.set_injector d None) (fun () ->
      Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg)
  in
  Alcotest.(check (list (pair int int))) "untouched metadata blocks read" [] !read;
  Lfs.check fs;
  let v = Lfs.vfs fs in
  Tutil.check_bytes "rolled write" (Tutil.payload 99 bs)
    (v.Vfs.read (v.Vfs.open_file (path 0)) ~off:0 ~len:bs)

(* The newest checkpoint on the platter. *)
let newest_checkpoint disks =
  let r0, r1 = Layout.checkpoint_blknos in
  match
    List.filter_map (fun r -> Layout.read_checkpoint (Diskset.peek disks r)) [ r0; r1 ]
    |> List.sort (fun a b -> Int64.compare b.Layout.cp_seq a.Layout.cp_seq)
  with
  | cp :: _ -> cp
  | [] -> Alcotest.fail "no checkpoint"

(* With the log head mid-segment and nothing torn, the scrub finds no
   stale summary and reads nothing beyond what roll-forward read. That
   is 10 requests: the superblock, both checkpoint records, the imap and
   usage chunks, the rolled partial's summary and then its payload as
   one run (two data blocks and /f's new inode block, which mount keeps
   and does not read again), /f's inode block as the checkpoint left
   it, the empty summary slot after the partial and the next segment's
   first block. A scrub of the rest of the segment would read each of
   its blocks too. *)
let test_mount_scrubs_only_stale_chain () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/f" in
  v.Vfs.write fd ~off:0 (Tutil.payload 1 (4 * bs));
  Lfs.checkpoint fs;
  v.Vfs.write fd ~off:0 (Tutil.payload 2 (2 * bs));
  v.Vfs.fsync fd;
  Lfs.crash fs;
  let cp = newest_checkpoint m.Tutil.disks in
  let seg_blocks = m.Tutil.cfg.Config.fs.Config.segment_blocks in
  Alcotest.(check bool)
    (Printf.sprintf "head mid-segment (block %d of %d)" cp.Layout.cur_off seg_blocks)
    true
    (cp.Layout.cur_off > 0 && cp.Layout.cur_off + 8 < seg_blocks);
  let scrubbed0 = Stats.count m.Tutil.stats "lfs.scrubbed_partials" in
  let fs, reads =
    Tutil.tagged_reads m.Tutil.disks (Hashtbl.create 0) (fun () ->
        Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg)
  in
  Alcotest.(check int) "reads by mount" 10 (List.length reads);
  Alcotest.(check int) "summaries scrubbed" 0
    (Stats.count m.Tutil.stats "lfs.scrubbed_partials" - scrubbed0);
  Lfs.check fs;
  let v = Lfs.vfs fs in
  Tutil.check_bytes "rolled write" (Tutil.payload 2 (2 * bs))
    (v.Vfs.read (v.Vfs.open_file "/f") ~off:0 ~len:(2 * bs))

(* A commit flush larger than two segments' worth of summary entries is
   one atomic batch of five partials: each 768-block chunk is halved to
   fit its summary block. With 1 024-block segments and the head near a
   segment's start, two partials fill the head segment, the next two go
   to the start of [next_seg] and 385 blocks into it, and the last
   follows them. The power fails inside the last, so mount discards the
   batch and rewinds the head to its start; every summary of the batch
   must then read as zeros, or a later recovery could take the ones
   past [next_seg]'s first block for the log's continuation. The same
   shape is then written and torn again, and again only the committed
   bytes come back. *)
let test_stale_batch_across_segment_boundary () =
  let base = Tutil.small_config () in
  let cfg =
    {
      base with
      Config.disk = { base.Config.disk with Config.nblocks = 16384 };
      fs = { base.Config.fs with Config.segment_blocks = 1024; cache_blocks = 2048 };
    }
  in
  let m = Tutil.machine ~cfg () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats cfg in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let committed = Tutil.payload 1 (4 * bs) in
  let fd = v.Vfs.create "/f" in
  v.Vfs.write fd ~off:0 committed;
  v.Vfs.fsync fd;
  Lfs.checkpoint fs;
  let inum = Lfs.inum_of fs "/f" in
  let pages = (2 * 768) + 10 in
  (* One transaction's commit flush of [pages] pages of [tag], its
     power cut after [crash_after] block writes. *)
  let flush ~crash_after fs tag =
    let cache = Lfs.cache fs in
    for p = 0 to pages - 1 do
      let fr = Lfs.get_page fs ~inum ~lblock:p in
      Bytes.blit (Tutil.payload (tag + p) bs) 0 fr.Cache.data 0 bs;
      Lfs.page_dirty fs fr;
      Lfs.extend_to fs ~inum ((p + 1) * bs);
      Cache.own cache fr 1
    done;
    let frames = Cache.txn_frames cache 1 in
    List.iter (Cache.release cache) frames;
    let fault = Faultsim.arm ~crash_after m.Tutil.disks in
    (try Lfs.force_frames fs frames with Disk.Injected_crash -> ());
    Faultsim.disarm fault;
    Lfs.crash fs
  in
  let cp = newest_checkpoint m.Tutil.disks in
  let seg_blocks = cfg.Config.fs.Config.segment_blocks in
  let at seg off = Layout.data_start + (seg * seg_blocks) + off in
  let a = cp.Layout.cur_seg and o = cp.Layout.cur_off and b = cp.Layout.cp_next_seg in
  let batch = [ at a o; at a (o + 385); at b 0; at b 385; at b 770 ] in
  (* Tear the last partial, leaving its summary and part of its data. *)
  let crash_after = (4 * 385) + 5 in
  flush ~crash_after fs 100;
  List.iteri
    (fun i blkno ->
      match Layout.read_summary (Diskset.peek m.Tutil.disks blkno) with
      | Some s ->
        Alcotest.(check int64)
          (Printf.sprintf "partial %d's seq" i)
          (Int64.add cp.Layout.write_seq (Int64.of_int i))
          s.Layout.seq;
        Alcotest.(check bool) (Printf.sprintf "partial %d's more" i) (i < 4) s.Layout.more
      | None -> Alcotest.failf "no summary for partial %d at block %d" i blkno)
    batch;
  let discarded0 = Stats.count m.Tutil.stats "lfs.discarded_batches" in
  let mount () =
    let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats cfg in
    Lfs.check fs;
    let v = Lfs.vfs fs in
    let fd = v.Vfs.open_file "/f" in
    Alcotest.(check int) "committed size" (4 * bs) (v.Vfs.size fd);
    Tutil.check_bytes "committed bytes" committed (v.Vfs.read fd ~off:0 ~len:(4 * bs));
    fs
  in
  let fs = mount () in
  Alcotest.(check int) "batch discarded" 1
    (Stats.count m.Tutil.stats "lfs.discarded_batches" - discarded0);
  let zero = Bytes.make bs '\000' in
  List.iteri
    (fun i blkno ->
      Alcotest.(check bool)
        (Printf.sprintf "partial %d's summary zeroed" i)
        true
        (Bytes.equal zero (Diskset.peek m.Tutil.disks blkno)))
    batch;
  flush ~crash_after fs 200;
  ignore (mount ());
  Alcotest.(check int) "both batches discarded" 2
    (Stats.count m.Tutil.stats "lfs.discarded_batches" - discarded0)

let test_repeated_crash_recovery_cycles () =
  (* Crash, recover, write, crash again — five times over; every synced
     generation must be intact and the image consistent. *)
  let m, fs0 = Tutil.fresh_lfs () in
  let fs = ref fs0 in
  for generation = 0 to 4 do
    let v = Lfs.vfs !fs in
    let path = Printf.sprintf "/gen%d" generation in
    let fd = v.Vfs.create path in
    v.Vfs.write fd ~off:0 (Tutil.payload generation 20_000);
    v.Vfs.sync ();
    (* Unsynced noise that each crash must discard. *)
    let fd2 =
      if v.Vfs.exists "/noise" then v.Vfs.open_file "/noise" else v.Vfs.create "/noise"
    in
    v.Vfs.write fd2 ~off:0 (Tutil.payload (100 + generation) 8_000);
    fs := remount m !fs;
    Lfs.check !fs
  done;
  let v = Lfs.vfs !fs in
  for generation = 0 to 4 do
    let fd = v.Vfs.open_file (Printf.sprintf "/gen%d" generation) in
    Tutil.check_bytes
      (Printf.sprintf "generation %d" generation)
      (Tutil.payload generation 20_000)
      (v.Vfs.read fd ~off:0 ~len:20_000)
  done

let test_snapshot_time_travel_and_undelete () =
  let _, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let original = Tutil.payload 1 10_000 in
  let fd = v.Vfs.create "/report" in
  v.Vfs.write fd ~off:0 original;
  let fd2 = v.Vfs.create "/doomed" in
  v.Vfs.write fd2 ~off:0 (Bytes.of_string "save me");
  let snap = Lfs.snapshot fs in
  (* Mutate the present: overwrite one file, delete the other. *)
  v.Vfs.write fd ~off:0 (Tutil.payload 2 10_000);
  v.Vfs.remove "/doomed";
  v.Vfs.sync ();
  Alcotest.(check bool) "deleted in the present" false (v.Vfs.exists "/doomed");
  (* The snapshot still shows the old world. *)
  let old = Lfs.snapshot_view fs snap in
  Alcotest.(check bool) "deleted file visible in snapshot" true
    (old.Vfs.exists "/doomed");
  Alcotest.(check string) "undelete: content recovered" "save me"
    (Bytes.to_string
       (old.Vfs.read (old.Vfs.open_file "/doomed") ~off:0 ~len:100));
  Tutil.check_bytes "old version of overwritten file" original
    (old.Vfs.read (old.Vfs.open_file "/report") ~off:0 ~len:10_000);
  (* The view is read-only. *)
  Alcotest.(check bool) "writes rejected" true
    (match old.Vfs.write (old.Vfs.open_file "/report") ~off:0 (Bytes.of_string "x") with
    | exception Vfs.Error (Vfs.Not_supported, _) -> true
    | _ -> false);
  let ofd = old.Vfs.open_file "/report" in
  let bs = old.Vfs.block_size in
  Tutil.check_bytes "snapshot read_block" (Bytes.sub original bs bs)
    (old.Vfs.read_block ofd 1);
  Lfs.release_snapshot fs snap;
  Alcotest.(check int) "no snapshots left" 0 (Lfs.snapshots fs);
  Alcotest.(check bool) "released view rejected" true
    (match Lfs.snapshot_view fs snap with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* A view taken before the release dies with its snapshot: the cleaner
     may already be reusing the segments it would read. *)
  let rejected name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejected "released view: read" (fun () -> ignore (old.Vfs.read ofd ~off:0 ~len:10));
  rejected "released view: read_block" (fun () -> ignore (old.Vfs.read_block ofd 0));
  rejected "released view: size" (fun () -> ignore (old.Vfs.size ofd));
  rejected "released view: exists" (fun () -> ignore (old.Vfs.exists "/doomed"));
  rejected "released view: open" (fun () -> ignore (old.Vfs.open_file "/doomed"));
  (* A live snapshot's view dies with the file system it was taken from. *)
  let snap2 = Lfs.snapshot fs in
  let view2 = Lfs.snapshot_view fs snap2 in
  let rfd = view2.Vfs.open_file "/report" in
  Lfs.crash fs;
  Alcotest.check_raises "view after crash: read" Lfs.Crashed (fun () ->
      ignore (view2.Vfs.read rfd ~off:0 ~len:10));
  Alcotest.check_raises "view after crash: size" Lfs.Crashed (fun () ->
      ignore (view2.Vfs.size rfd));
  Alcotest.check_raises "view after crash: exists" Lfs.Crashed (fun () ->
      ignore (view2.Vfs.exists "/report"))

let test_snapshot_survives_cleaning_pressure () =
  let cfg = Tutil.small_config () in
  let cfg = { cfg with Config.disk = { cfg.Config.disk with nblocks = 2048 } } in
  let _, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let precious = Tutil.payload 42 30_000 in
  let fd = v.Vfs.create "/precious" in
  v.Vfs.write fd ~off:0 precious;
  let snap = Lfs.snapshot fs in
  let frozen = Lfs.free_segments fs in
  (* Churn hard enough to need the cleaner; pinned segments must survive.
     The writable space is reduced while the snapshot lives. *)
  let sfd = v.Vfs.create "/churn" in
  (try
     for round = 0 to 60 do
       v.Vfs.write sfd ~off:0 (Tutil.payload round 30_000);
       v.Vfs.fsync sfd
     done
   with Vfs.Error (Vfs.No_space, _) -> () (* acceptable under a snapshot *));
  (* Segments freed under the snapshot stay out of the free count. *)
  Lfs.check fs;
  let old = Lfs.snapshot_view fs snap in
  Tutil.check_bytes "snapshot data intact under cleaning pressure" precious
    (old.Vfs.read (old.Vfs.open_file "/precious") ~off:0 ~len:30_000);
  (* Releasing the snapshot returns the frozen segments to service. *)
  Lfs.release_snapshot fs snap;
  v.Vfs.sync ();
  Alcotest.(check bool) "space recoverable after release" true
    (Lfs.free_segments fs >= frozen - 2 || Lfs.clean_once fs);
  Lfs.check fs

let test_policy_greedy_prefers_emptiest () =
  let live = [| 10; 3; 0; 7 |] in
  let v =
    Policy.choose ~policy:`Greedy ~nsegments:4 ~segment_blocks:32 ~now:100.0
      ~live:(fun i -> live.(i))
      ~last_write:(fun _ -> 0.0)
      ~candidate:(fun i -> i <> 2)
  in
  Alcotest.(check (option int)) "picks min live" (Some 1) v

let test_policy_dead_segment_wins () =
  let live = [| 10; 3; 0; 7 |] in
  let v =
    Policy.choose ~policy:`Cost_benefit ~nsegments:4 ~segment_blocks:32
      ~now:100.0
      ~live:(fun i -> live.(i))
      ~last_write:(fun _ -> 0.0)
      ~candidate:(fun _ -> true)
  in
  Alcotest.(check (option int)) "dead segment free to claim" (Some 2) v

let test_policy_cost_benefit_prefers_cold () =
  (* Equal utilization: the older (colder) segment should win. *)
  let v =
    Policy.choose ~policy:`Cost_benefit ~nsegments:2 ~segment_blocks:32
      ~now:100.0
      ~live:(fun _ -> 16)
      ~last_write:(fun i -> if i = 0 then 90.0 else 10.0)
      ~candidate:(fun _ -> true)
  in
  Alcotest.(check (option int)) "cold wins" (Some 1) v

let test_policy_none () =
  Alcotest.(check (option int)) "no candidates" None
    (Policy.choose ~policy:`Greedy ~nsegments:4 ~segment_blocks:32 ~now:0.0
       ~live:(fun _ -> 1)
       ~last_write:(fun _ -> 0.0)
       ~candidate:(fun _ -> false))

(* Model-based property test for victim selection: the policy must match
   a one-pass reference (dead segments score infinity; ties keep the
   earliest index; replacement only on a strictly better score). *)
let prop_policy_model =
  let gen =
    QCheck2.Gen.(
      pair
        (oneofl [ `Greedy; `Cost_benefit ])
        (list_size (int_range 1 12)
           (triple (int_bound 32)
              (map (fun w -> float_of_int w /. 10.0) (int_bound 1000))
              bool)))
  in
  Tutil.qtest ~count:300 "policy matches reference model" gen
    (fun (policy, segs) ->
      let a = Array.of_list segs in
      let n = Array.length a in
      let live i = match a.(i) with l, _, _ -> l in
      let last_write i = match a.(i) with _, w, _ -> w in
      let candidate i = match a.(i) with _, _, c -> c in
      let now = 100.0 in
      let score i =
        if live i = 0 then infinity
        else
          let u = float_of_int (live i) /. 32.0 in
          match policy with
          | `Greedy -> -.float_of_int (live i)
          | `Cost_benefit ->
            let age = Float.max 0.0 (now -. last_write i) in
            (1.0 -. u) *. (1.0 +. age) /. (1.0 +. u)
      in
      let expect = ref None in
      for i = 0 to n - 1 do
        if candidate i then
          match !expect with
          | Some (_, s) when s >= score i -> ()
          | _ -> expect := Some (i, score i)
      done;
      Policy.choose ~policy ~nsegments:n ~segment_blocks:32 ~now ~live
        ~last_write ~candidate
      = Option.map fst !expect)

(* Regression for the cost-benefit age signal: a segment's [last_write]
   must move only when data is written into that segment — not when the
   usage entry is touched for bookkeeping — and must survive a remount
   through the checkpointed usage table. *)
let test_last_write_age_signal () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  (* Three segments' worth of data, so at least two segments close and
     stop receiving writes. *)
  let fd = v.Vfs.create "/old" in
  v.Vfs.write fd ~off:0 (Tutil.payload 1 (96 * bs));
  v.Vfs.sync ();
  let n = Lfs.nsegments fs in
  let snap () =
    List.init n (fun i -> (i, Lfs.live_blocks fs i, Lfs.last_write fs i))
  in
  let before = snap () in
  (* Ten simulated minutes later, unrelated writes land in other (or
     still-open) segments; any closed segment's age signal must not
     move. A segment whose live count changed took part in the new
     write, so only stable ones are compared. *)
  Clock.advance m.Tutil.clock 600.0;
  let fd2 = v.Vfs.create "/new" in
  v.Vfs.write fd2 ~off:0 (Tutil.payload 2 (4 * bs));
  v.Vfs.sync ();
  let stable = ref 0 in
  List.iter
    (fun (i, live, lw) ->
      if live > 0 && Lfs.live_blocks fs i = live then begin
        incr stable;
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "segment %d last_write unchanged" i)
          lw (Lfs.last_write fs i)
      end)
    before;
  Alcotest.(check bool) "some stable segments compared" true (!stable > 0);
  (* And the signal is durable: a crash + remount rebuilds the usage
     table from the checkpoint, ages intact. *)
  let persisted = snap () in
  let fs = remount m fs in
  List.iter
    (fun (i, live, lw) ->
      if live > 0 then
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "segment %d last_write after remount" i)
          lw (Lfs.last_write fs i))
    (List.filter (fun (i, _, _) -> Lfs.live_blocks fs i > 0) persisted)

(* Regression: the user-space cleaner must checkpoint only when it
   actually cleaned a segment. With the low-water mark set impossibly
   high, every operation consults the cleaner; on a fresh file system
   there is no victim, so no cleaning — and therefore no checkpoint —
   may happen. *)
let test_user_cleaner_idle_no_checkpoint () =
  let cfg = Tutil.small_config () in
  let cfg =
    {
      cfg with
      Config.fs =
        {
          cfg.Config.fs with
          lfs_user_cleaner = true;
          cleaner_low_segments = 10_000;
          cleaner_high_segments = 10_001;
        };
    }
  in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let base_cp = Stats.count m.Tutil.stats "lfs.checkpoints" in
  for _ = 1 to 200 do
    ignore (v.Vfs.exists "/nope")
  done;
  Alcotest.(check int) "idle ticks cleaned nothing" 0
    (Stats.count m.Tutil.stats "cleaner.segments");
  Alcotest.(check int) "idle ticks forced no checkpoints" base_cp
    (Stats.count m.Tutil.stats "lfs.checkpoints")

(* Regression: dead-segment reclaims must feed the same accounting as
   copying cleans — ["cleaner.segments"] counts them and the
   ["cleaner.clean"] histogram observes them (as a zero-cost clean), so
   the two stay equal; and the incrementally-maintained reclaimable
   counter must agree with a recount ([Lfs.check] asserts it). *)
let test_cleaner_counter_consistency () =
  let cfg = Tutil.small_config () in
  let cfg = { cfg with Config.disk = { cfg.Config.disk with nblocks = 1024 } } in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/churn" in
  for round = 0 to 60 do
    v.Vfs.write fd ~off:0 (Tutil.payload round (16 * bs));
    v.Vfs.fsync fd
  done;
  v.Vfs.sync ();
  Alcotest.(check bool) "dead segments were reclaimed" true
    (Stats.count m.Tutil.stats "cleaner.reclaimed_dead" >= 1);
  let segs = Stats.count m.Tutil.stats "cleaner.segments" in
  let cleans =
    match Stats.histo m.Tutil.stats "cleaner.clean" with
    | Some h -> Histo.count h
    | None -> 0
  in
  Alcotest.(check int) "cleaner.segments = cleaner.clean samples" segs cleans;
  Alcotest.(check bool) "segments counter covers dead reclaims" true
    (segs >= Stats.count m.Tutil.stats "cleaner.reclaimed_dead");
  (* Reclaimable = Free + Pending; a checkpoint converts every Pending
     segment to Free, so afterwards the two accessors must agree. *)
  Alcotest.(check bool) "reclaimable >= free" true
    (Lfs.reclaimable_segments fs >= Lfs.free_segments fs);
  Lfs.checkpoint fs;
  Alcotest.(check int) "after checkpoint, reclaimable = free"
    (Lfs.free_segments fs)
    (Lfs.reclaimable_segments fs);
  Lfs.check fs

(* Hot/cold segregation: survivors relocated by the cleaner land in a
   dedicated cold segment, and the cold bit rides the checkpointed usage
   table across a crash + remount. *)
(* Under a scheduler a partial's inode addresses point at its new
   blocks before its disk write lands. Here the fsync's write waits for
   the arm, busy with a queued read, while another process misses in the
   cache on the block being written and queues a read of its new
   address: that read must wait for the write, not return the platter's
   old bytes. *)
let test_queued_read_waits_for_segment_write () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let cold = v.Vfs.create "/cold" and hot = v.Vfs.create "/hot" in
  v.Vfs.write cold ~off:0 (Bytes.make bs 'C');
  Lfs.sync fs;
  v.Vfs.write hot ~off:0 (Bytes.make bs 'H');
  let cold_inum = Lfs.inum_of fs "/cold" and hot_inum = Lfs.inum_of fs "/hot" in
  let evict inum =
    match Cache.lookup (Lfs.cache fs) ~file:inum ~lblock:0 with
    | Some f -> Cache.invalidate (Lfs.cache fs) f
    | None -> ()
  in
  evict cold_inum;
  let sched = Sched.create m.Tutil.clock in
  let seen = ref ' ' in
  Sched.spawn sched (fun () ->
      ignore (Lfs.get_page fs ~inum:cold_inum ~lblock:0));
  Sched.spawn sched (fun () ->
      Sched.delay sched 1e-4;
      Lfs.fsync_inum fs hot_inum);
  Sched.spawn sched (fun () ->
      Sched.delay sched 2e-4;
      (* The fsync has marked the frame clean and is parked in its write. *)
      evict hot_inum;
      seen := Bytes.get (Lfs.get_page fs ~inum:hot_inum ~lblock:0).Cache.data 0);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check char) "read the written bytes" 'H' !seen

(* Mount trusts the checkpoint's usage table, so that table must count
   exactly what the inode map written beside it reaches, also when the
   file system changes while the checkpoint is parked in a disk write.
   Here the checkpoint parks in the partial that writes /a's inode;
   meanwhile another process truncates /a, which frees its blocks, and
   fsyncs it, so the truncated inode lands after the checkpoint, in the
   tail roll-forward replays. The remounted image must agree with
   reachability and hold /a empty. *)
let test_truncate_while_checkpoint_parked () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/a" in
  v.Vfs.write fd ~off:0 (Tutil.payload 1 (8 * bs));
  Lfs.sync fs;
  v.Vfs.write fd ~off:0 (Tutil.payload 2 bs);
  let inum = Lfs.inum_of fs "/a" in
  let frame = Option.get (Cache.lookup (Lfs.cache fs) ~file:inum ~lblock:0) in
  let checkpoints () = Stats.count m.Tutil.stats "lfs.checkpoints" in
  let cps0 = checkpoints () in
  let parked = ref false in
  let sched = Sched.create m.Tutil.clock in
  Sched.spawn sched (fun () -> Lfs.checkpoint fs);
  Sched.spawn sched (fun () ->
      Sched.delay sched 1e-4;
      (* The checkpoint's first partial holds /a's block and inode: it
         marked the frame clean and is parked in its write. *)
      parked := checkpoints () = cps0 && not (Cache.writable frame);
      v.Vfs.truncate fd 0;
      v.Vfs.fsync fd);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check bool) "truncated while the checkpoint was parked" true !parked;
  let fs = remount m fs in
  Lfs.check fs;
  let v = Lfs.vfs fs in
  Alcotest.(check int) "/a is empty" 0 (v.Vfs.size (v.Vfs.open_file "/a"))

let test_cold_bit_persists_remount () =
  let cfg = Tutil.small_config () in
  let cfg =
    {
      cfg with
      Config.disk = { cfg.Config.disk with nblocks = 1024 };
      fs = { cfg.Config.fs with cleaner_segregate = true };
    }
  in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  (* Long-lived data the cleaner will have to carry as cold survivors. *)
  let kfd = v.Vfs.create "/keep" in
  let keep = Tutil.payload 42 (8 * bs) in
  v.Vfs.write kfd ~off:0 keep;
  v.Vfs.sync ();
  let sfd = v.Vfs.create "/scratch" in
  for round = 0 to 20 do
    v.Vfs.write sfd ~off:0 (Tutil.payload round (16 * bs));
    v.Vfs.fsync sfd
  done;
  v.Vfs.sync ();
  let n = Lfs.nsegments fs in
  let cold_segments () =
    List.filter
      (fun i -> Lfs.segment_cold fs i && Lfs.live_blocks fs i > 0)
      (List.init n (fun i -> i))
  in
  (* Dead scratch segments reclaim for free; keep cleaning until a
     victim with survivors forces a copying clean through the
     relocation (cold) head. *)
  let guard = ref 0 in
  while cold_segments () = [] && !guard < 64 && Lfs.clean_once fs do
    incr guard
  done;
  let cold = cold_segments () in
  Alcotest.(check bool) "segregation opened a cold segment" true (cold <> []);
  Lfs.checkpoint fs;
  let fs = remount m fs in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "segment %d still cold after remount" i)
        true (Lfs.segment_cold fs i))
    cold;
  let v = Lfs.vfs fs in
  let kfd = v.Vfs.open_file "/keep" in
  Tutil.check_bytes "cold survivor intact" keep (v.Vfs.read kfd ~off:0 ~len:(8 * bs))

(* The usage table's last chunk: with 2 048-byte blocks a chunk holds
   97 usage entries, so 195 segments need 3 chunks — one more than
   sizing the chunk arrays as [n * entry_bytes / block_size + 1] gives.
   Format, checkpoint, remount and check at exactly that geometry. *)
let test_usage_table_last_chunk () =
  let cfg = Tutil.small_config () in
  let cfg =
    {
      cfg with
      Config.disk =
        {
          cfg.Config.disk with
          block_size = 2048;
          nblocks = Layout.data_start + (195 * 16);
        };
      fs = { cfg.Config.fs with segment_blocks = 16 };
    }
  in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  Alcotest.(check int) "segments" 195 (Lfs.nsegments fs);
  let v = Lfs.vfs fs in
  let fd = v.Vfs.create "/f" in
  let data = Tutil.payload 3 (5 * 2048) in
  v.Vfs.write fd ~off:0 data;
  Lfs.checkpoint fs;
  Lfs.check fs;
  let fs = remount m fs in
  Lfs.check fs;
  let v = Lfs.vfs fs in
  Tutil.check_bytes "file survives" data
    (v.Vfs.read (v.Vfs.open_file "/f") ~off:0 ~len:(5 * 2048))

(* A checkpoint whose chunk lists do not match the image's geometry is
   refused at mount instead of being half-loaded. *)
let test_mount_rejects_mismatched_checkpoint () =
  let m, fs = Tutil.fresh_lfs () in
  Lfs.sync fs;
  Lfs.crash fs;
  let r0, r1 = Layout.checkpoint_blknos in
  List.iter
    (fun r ->
      match Layout.read_checkpoint (Diskset.read m.Tutil.disks r) with
      | None -> ()
      | Some cp ->
        let b = Bytes.make m.Tutil.cfg.Config.disk.block_size '\000' in
        Layout.write_checkpoint b
          { cp with Layout.imap_addrs = Array.append cp.Layout.imap_addrs [| 0 |] };
        Diskset.write m.Tutil.disks r b)
    [ r0; r1 ];
  Alcotest.(check bool) "mount refuses" true
    (match Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg with
    | exception Vfs.Error (Vfs.Invalid, _) -> true
    | _ -> false)

(* A sealed summary whose entries run past its segment's end is refused
   by the cleaner, naming the segment, before any survivor is moved:
   parsed in place, such an entry would name the next segment's bytes.
   Here each used segment's first summary gains entries, for no live
   file, up to one past the segment's end. *)
let test_cleaner_refuses_overflowing_summary () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let seg_blocks = m.Tutil.cfg.Config.fs.Config.segment_blocks in
  let data = Tutil.payload 5 (40 * bs) in
  let fd = v.Vfs.create "/f" in
  v.Vfs.write fd ~off:0 data;
  Lfs.sync fs;
  let used =
    List.filter (fun i -> Lfs.live_blocks fs i > 0) (List.init (Lfs.nsegments fs) Fun.id)
  in
  List.iter
    (fun i ->
      let blkno = Layout.data_start + (i * seg_blocks) in
      match Layout.read_summary (Diskset.peek m.Tutil.disks blkno) with
      | None -> ()
      | Some s ->
        let pad = seg_blocks - List.length s.Layout.entries in
        let b = Bytes.make bs '\000' in
        Layout.write_summary b
          {
            s with
            Layout.entries =
              s.Layout.entries
              @ List.init pad (fun _ -> Layout.Data { inum = 0; lblock = 0 });
          };
        Diskset.poke m.Tutil.disks blkno b)
    used;
  let live = List.map (Lfs.live_blocks fs) used in
  (match Lfs.clean_once fs with
  | _ -> Alcotest.fail "the cleaner took an overflowing summary"
  | exception Vfs.Error (Vfs.Invalid, msg) ->
    Alcotest.(check bool)
      ("names a used segment: " ^ msg)
      true
      (List.exists
         (fun i -> Tutil.contains msg (Printf.sprintf "segment %d " i))
         used));
  Alcotest.(check (list int))
    "no survivor moved" live
    (List.map (Lfs.live_blocks fs) used);
  Tutil.check_bytes "file intact" data (v.Vfs.read fd ~off:0 ~len:(40 * bs))

(* Roll-forward applies the same bound. A summary at the recovered log
   head whose entries run into the next segment, with a valid payload
   checksum over those blocks, would otherwise remap a file's block to
   the next segment's first block. *)
let test_roll_forward_refuses_overflowing_summary () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let seg_blocks = m.Tutil.cfg.Config.fs.Config.segment_blocks in
  let data = Tutil.payload 6 (3 * bs) in
  let fd = v.Vfs.create "/f" in
  v.Vfs.write fd ~off:0 data;
  Lfs.sync fs;
  let inum = Lfs.inum_of fs "/f" in
  Lfs.crash fs;
  let cp =
    let r0, r1 = Layout.checkpoint_blknos in
    match
      List.filter_map
        (fun r -> Layout.read_checkpoint (Diskset.peek m.Tutil.disks r))
        [ r0; r1 ]
      |> List.sort (fun a b -> Int64.compare b.Layout.cp_seq a.Layout.cp_seq)
    with
    | cp :: _ -> cp
    | [] -> Alcotest.fail "no checkpoint"
  in
  let blkno = Layout.data_start + (cp.Layout.cur_seg * seg_blocks) + cp.Layout.cur_off in
  let n = seg_blocks - cp.Layout.cur_off in
  let payload =
    Bytes.concat Bytes.empty
      (List.init n (fun i -> Diskset.peek m.Tutil.disks (blkno + 1 + i)))
  in
  let b = Bytes.make bs '\000' in
  Layout.write_summary b
    {
      Layout.seq = cp.Layout.write_seq;
      timestamp = 0.0;
      next_seg = cp.Layout.cp_next_seg;
      more = false;
      cold = false;
      payload_ck = Layout.checksum payload;
      entries =
        List.init n (fun i ->
            Layout.Data { inum = (if i = n - 1 then inum else 0); lblock = 0 });
    };
  Diskset.poke m.Tutil.disks blkno b;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  Tutil.check_bytes "file intact" data
    (v.Vfs.read (v.Vfs.open_file "/f") ~off:0 ~len:(3 * bs));
  Lfs.check fs

(* The boundary of the partial rule: a summary whose entries end exactly
   at its segment's last block is sound. Here the last summary of each
   used segment gains entries, for no live file, up to the segment's
   end, so whichever victim the cleaner picks holds one; the clean must
   move every survivor. *)
let test_cleaner_accepts_summary_ending_at_segment_end () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let seg_blocks = m.Tutil.cfg.Config.fs.Config.segment_blocks in
  let data = Tutil.payload 5 (40 * bs) in
  let fd = v.Vfs.create "/f" in
  v.Vfs.write fd ~off:0 data;
  Lfs.sync fs;
  let used =
    List.filter (fun i -> Lfs.live_blocks fs i > 0) (List.init (Lfs.nsegments fs) Fun.id)
  in
  let padded =
    List.filter
      (fun i ->
        let base = Layout.data_start + (i * seg_blocks) in
        let rec last pos found =
          if pos >= seg_blocks then found
          else
            match Layout.read_summary (Diskset.peek m.Tutil.disks (base + pos)) with
            | None -> found
            | Some s -> last (Layout.next_partial ~pos s) (Some (pos, s))
        in
        match last 0 None with
        | None -> false
        | Some (pos, s) ->
          let pad = seg_blocks - Layout.next_partial ~pos s in
          let b = Bytes.make bs '\000' in
          Layout.write_summary b
            {
              s with
              Layout.entries =
                s.Layout.entries
                @ List.init pad (fun _ -> Layout.Data { inum = 0; lblock = 0 });
            };
          Diskset.poke m.Tutil.disks (base + pos) b;
          pad > 0)
      used
  in
  Alcotest.(check bool) "some summary padded" true (padded <> []);
  Alcotest.(check bool) "cleaned" true (Lfs.clean_once fs);
  Alcotest.(check bool) "a victim emptied" true
    (List.exists (fun i -> Lfs.live_blocks fs i = 0) used);
  Tutil.check_bytes "file intact" data (v.Vfs.read fd ~off:0 ~len:(40 * bs));
  Lfs.check fs

(* Roll-forward takes the same boundary: a summary at the recovered log
   head whose entries end exactly at the segment's last block, with a
   valid payload checksum, is applied, remapping the file's block 0 to
   that last block. *)
let test_roll_forward_accepts_summary_ending_at_segment_end () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let seg_blocks = m.Tutil.cfg.Config.fs.Config.segment_blocks in
  let data = Tutil.payload 6 (3 * bs) in
  let fd = v.Vfs.create "/f" in
  v.Vfs.write fd ~off:0 data;
  Lfs.sync fs;
  let inum = Lfs.inum_of fs "/f" in
  Lfs.crash fs;
  let cp =
    let r0, r1 = Layout.checkpoint_blknos in
    match
      List.filter_map
        (fun r -> Layout.read_checkpoint (Diskset.peek m.Tutil.disks r))
        [ r0; r1 ]
      |> List.sort (fun a b -> Int64.compare b.Layout.cp_seq a.Layout.cp_seq)
    with
    | cp :: _ -> cp
    | [] -> Alcotest.fail "no checkpoint"
  in
  let blkno = Layout.data_start + (cp.Layout.cur_seg * seg_blocks) + cp.Layout.cur_off in
  let n = seg_blocks - cp.Layout.cur_off - 1 in
  let blocks = List.init n (fun i -> Diskset.peek m.Tutil.disks (blkno + 1 + i)) in
  let b = Bytes.make bs '\000' in
  Layout.write_summary b
    {
      Layout.seq = cp.Layout.write_seq;
      timestamp = 0.0;
      next_seg = cp.Layout.cp_next_seg;
      more = false;
      cold = false;
      payload_ck = Layout.checksum (Bytes.concat Bytes.empty blocks);
      entries =
        List.init n (fun i ->
            Layout.Data { inum = (if i = n - 1 then inum else 0); lblock = 0 });
    };
  Diskset.poke m.Tutil.disks blkno b;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let block0 = v.Vfs.read (v.Vfs.open_file "/f") ~off:0 ~len:bs in
  Tutil.check_bytes "block 0 is the segment's last block" (List.nth blocks (n - 1)) block0;
  Alcotest.(check bool) "block 0 moved" false (Bytes.equal block0 (Bytes.sub data 0 bs));
  Lfs.check fs

(* A flush never builds a partial that its segment or its summary block
   cannot hold. At 128-block segments and 4 KB blocks, a sync of many
   files' inodes or of many indirect blocks used to lay out one partial
   past the segment, or seal a summary whose inode-number table ran into
   the first payload block. *)
let sizing_machine () =
  let c = Tutil.small_config () in
  Tutil.fresh_lfs
    ~cfg:
      {
        c with
        Config.disk = { c.Config.disk with nblocks = 16_384 };
        fs = { c.Config.fs with segment_blocks = 128; cache_blocks = 4096 };
      }
    ()

(* Create [n] files, each with [block] (if any) written at lblock 20,
   sync, crash, remount, and check every file came back whole. *)
let sync_many_files ~n ~block =
  let m, fs = sizing_machine () in
  let v = Lfs.vfs fs in
  let bs = v.Vfs.block_size in
  let data i = Tutil.payload (1000 + i) bs in
  for i = 0 to n - 1 do
    let fd = v.Vfs.create (Printf.sprintf "/f%d" i) in
    if block then v.Vfs.write fd ~off:(20 * bs) (data i)
  done;
  Lfs.sync fs;
  Lfs.check fs;
  let fs = remount m fs in
  Lfs.check fs;
  let v = Lfs.vfs fs in
  for i = 0 to n - 1 do
    let fd = v.Vfs.open_file (Printf.sprintf "/f%d" i) in
    if block then Tutil.check_bytes "block back" (data i) (v.Vfs.read fd ~off:(20 * bs) ~len:bs)
    else Alcotest.(check int) "empty" 0 (v.Vfs.size fd)
  done

(* 1 000 inodes: 63 inode blocks fit the segment, but their summary needs
   4 607 bytes. *)
let test_summary_table_fits_its_block () = sync_many_files ~n:1000 ~block:false

(* 2 100 inodes: 132 inode blocks, more than a segment holds. *)
let test_inodes_spill_over_segments () = sync_many_files ~n:2100 ~block:false

(* 100 files with one indirect block each: a 96-block data chunk pulls
   in 96 indirect blocks and 6 inode blocks. *)
let test_indirect_blocks_split_a_chunk () = sync_many_files ~n:100 ~block:true

(* The on-disk bytes of a cleaning-heavy run, not only its timings:
   hot/cold segregation and the adaptive daemon on the scheduler at
   MPL 8 with group commit, over two striped spindles and a log spindle
   holding the checkpoints, then a crash and a remount. The digests pin
   every spindle's platter, so a change that must not move simulated
   results is shown to leave each byte where it was. Only a change
   meant to move simulated results may update them, and it says so in
   CHANGES.md. *)
let test_platter_digest () =
  let c = Config.scaled ~factor:0.1 Config.default in
  let config =
    {
      c with
      Config.fs =
        {
          c.Config.fs with
          Config.lock_grain = `Record;
          group_commit_size = 8;
          group_commit_timeout_s = 0.02;
          ndisks = 2;
          log_disk = true;
        };
    }
  in
  let booted = ref None in
  let run =
    Expcommon.run_tpcb ~config
      ~prepare:(fun m v lfs ->
        Cleanersweep.prefill ~util_pct:80 m v lfs;
        booted := Option.map (fun fs -> (m, fs)) lfs)
      ~mpl:8 ~scale:(Expcommon.compact_scale 1) ~txns:200 ~seed:1
      Txstack.Lfs_kernel
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("reaches " ^ k) true
        (Stats.count run.Expcommon.stats k > 0))
    [ "cleaner.segments"; "cleaner.idle_cleans"; "lfs.cold_partials" ];
  let m, fs = Option.get !booted in
  Lfs.crash fs;
  Lfs.check (Lfs.mount m.Txstack.disks m.Txstack.clock m.Txstack.stats config);
  let digest d =
    let bs = Disk.block_size d in
    let img = Bytes.create (Disk.nblocks d * bs) in
    for i = 0 to Disk.nblocks d - 1 do
      Bytes.blit (Disk.peek d i) 0 img (i * bs) bs
    done;
    Digest.to_hex (Digest.bytes img)
  in
  Alcotest.(check string) "platter digests"
    "disk0=b0054fe38eeacd21753eedefc4e0ffbc disk1=c79ec10ebacd48e5fb81b01ba57d26bb \
     disklog=3e17ab97bd4cd029aca52b752db99fc2"
    (String.concat " "
       (List.map
          (fun (name, d) -> name ^ "=" ^ digest d)
          (Diskset.members m.Txstack.disks)))

let () =
  Alcotest.run "tx_lfs"
    [
      ("conformance", Conformance.cases Conformance.lfs);
      ( "io",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "multi-block" `Quick test_multi_block_and_offsets;
          Alcotest.test_case "holes" `Quick test_holes_read_zero;
          Alcotest.test_case "short reads" `Quick test_short_read_at_eof;
          Alcotest.test_case "indirect/double-indirect" `Quick
            test_indirect_and_double_indirect;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "directories" `Quick test_directories;
          Alcotest.test_case "protected attribute" `Quick test_protected_attribute;
        ] );
      ( "durability",
        [
          Alcotest.test_case "sync+remount" `Quick test_sync_remount_preserves;
          Alcotest.test_case "fsync then crash" `Quick test_fsync_then_crash;
          Alcotest.test_case "unsynced lost cleanly" `Quick
            test_unsynced_data_lost_cleanly;
          Alcotest.test_case "crash raises" `Quick test_crash_raises;
          Alcotest.test_case "crash after cleaning" `Quick
            test_crash_after_cleaning_before_checkpoint;
          Alcotest.test_case "overflowing summary not rolled forward" `Quick
            test_roll_forward_refuses_overflowing_summary;
          Alcotest.test_case "summary ending at the segment's end rolled forward"
            `Quick test_roll_forward_accepts_summary_ending_at_segment_end;
          Alcotest.test_case "repeated crash cycles" `Quick
            test_repeated_crash_recovery_cycles;
          Alcotest.test_case "mount reads only touched inodes" `Quick
            test_mount_reads_only_touched_inodes;
          Alcotest.test_case "mount scrubs only the stale chain" `Quick
            test_mount_scrubs_only_stale_chain;
          Alcotest.test_case "stale batch across a segment boundary" `Quick
            test_stale_batch_across_segment_boundary;
          prop_crash_trusted_usage;
          Alcotest.test_case "truncate while a checkpoint is parked" `Quick
            test_truncate_while_checkpoint_parked;
          Alcotest.test_case "usage table's last chunk" `Quick
            test_usage_table_last_chunk;
          Alcotest.test_case "mismatched checkpoint refused" `Quick
            test_mount_rejects_mismatched_checkpoint;
          Alcotest.test_case "summary table fits its block" `Quick
            test_summary_table_fits_its_block;
          Alcotest.test_case "inodes spill over segments" `Quick
            test_inodes_spill_over_segments;
          Alcotest.test_case "indirect blocks split a chunk" `Quick
            test_indirect_blocks_split_a_chunk;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "time travel / undelete" `Quick
            test_snapshot_time_travel_and_undelete;
          Alcotest.test_case "survives cleaning" `Quick
            test_snapshot_survives_cleaning_pressure;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "consistency check" `Quick
            test_consistency_check_after_activity;
          Alcotest.test_case "coalesce restores contiguity" `Quick
            test_coalesce_restores_contiguity;
          Alcotest.test_case "coalesce_all" `Quick test_coalesce_all_counts;
        ] );
      ( "cleaner",
        [
          Alcotest.test_case "reclaims and preserves" `Quick
            test_cleaner_reclaims_and_preserves;
          Alcotest.test_case "no space" `Quick test_no_space;
          Alcotest.test_case "overflowing summary refused" `Quick
            test_cleaner_refuses_overflowing_summary;
          Alcotest.test_case "summary ending at the segment's end cleaned" `Quick
            test_cleaner_accepts_summary_ending_at_segment_end;
          Alcotest.test_case "platter bytes pinned" `Quick test_platter_digest;
          Alcotest.test_case "greedy policy" `Quick test_policy_greedy_prefers_emptiest;
          Alcotest.test_case "dead segment" `Quick test_policy_dead_segment_wins;
          Alcotest.test_case "cost-benefit cold" `Quick
            test_policy_cost_benefit_prefers_cold;
          Alcotest.test_case "no candidate" `Quick test_policy_none;
          prop_policy_model;
          Alcotest.test_case "last_write age signal" `Quick
            test_last_write_age_signal;
          Alcotest.test_case "user cleaner: no idle checkpoint" `Quick
            test_user_cleaner_idle_no_checkpoint;
          Alcotest.test_case "counter consistency" `Quick
            test_cleaner_counter_consistency;
          Alcotest.test_case "queued read waits for segment write" `Quick
            test_queued_read_waits_for_segment_write;
          Alcotest.test_case "cold bit persists" `Quick
            test_cold_bit_persists_remount;
        ] );
      ("model", [ Conformance.prop_model ~count:30 Conformance.lfs ]);
    ]
