(* Tests for the read-optimized file system: the shared conformance suite
   plus FFS-specific behaviour — stable block addresses, contiguous layout,
   the elevator syncer, and fsck. *)

let fresh () =
  let m = Tutil.machine () in
  (m, Ffs.format m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg)

let test_sequential_layout_is_contiguous () =
  let _, fs = fresh () in
  let v = Ffs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/seq" in
  for i = 0 to 63 do
    v.Vfs.write fd ~off:(i * bs) (Tutil.payload i bs)
  done;
  Ffs.sync fs;
  Alcotest.(check (float 0.01)) "fully contiguous" 1.0 (Ffs.contiguity fs "/seq")

let test_update_in_place_preserves_layout () =
  let m, fs = fresh () in
  let v = Ffs.vfs fs in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/db" in
  for i = 0 to 63 do
    v.Vfs.write fd ~off:(i * bs) (Tutil.payload i bs)
  done;
  Ffs.sync fs;
  let writes_before = Stats.count m.Tutil.stats "ffs.blocks_allocated" in
  (* Random in-place updates. *)
  for r = 0 to 199 do
    let i = r * 37 mod 64 in
    v.Vfs.write fd ~off:(i * bs) (Tutil.payload (1000 + r) bs)
  done;
  Ffs.sync fs;
  Alcotest.(check int) "no new allocations for overwrites" writes_before
    (Stats.count m.Tutil.stats "ffs.blocks_allocated");
  Alcotest.(check (float 0.01)) "layout unchanged" 1.0 (Ffs.contiguity fs "/db")

let test_syncer_flushes_delayed_writes () =
  let m, fs = fresh () in
  let v = Ffs.vfs fs in
  let fd = v.Vfs.create "/delayed" in
  v.Vfs.write fd ~off:0 (Tutil.payload 3 8192);
  let before = Stats.count m.Tutil.stats "ffs.inplace_writes" in
  (* Push simulated time past the syncer interval; the next operation
     triggers the flush. *)
  Clock.advance m.Tutil.clock 31.0;
  ignore (v.Vfs.exists "/delayed");
  ignore (v.Vfs.open_file "/delayed");
  Alcotest.(check bool) "syncer wrote the dirty pages" true
    (Stats.count m.Tutil.stats "ffs.inplace_writes" > before)

(* Two processes fsync their own files at once: each parks in its
   sorted write sweep while the other's is open. Once both finish, the
   next operation past the syncer interval must run the syncer. A flag
   saved and restored around each flush let the second to open it close
   it last, restoring "open" and holding the syncer off for good. *)
let test_syncer_after_overlapping_fsyncs () =
  let m, fs = fresh () in
  let v = Ffs.vfs fs in
  let bs = v.Vfs.block_size in
  let sched = Sched.create m.Tutil.clock in
  List.iter
    (fun (path, tag) ->
      Sched.spawn sched (fun () ->
          let fd = v.Vfs.create path in
          for i = 0 to 7 do
            v.Vfs.write fd ~off:(i * bs) (Tutil.payload (tag + i) bs)
          done;
          v.Vfs.fsync fd))
    [ ("/a", 0); ("/b", 100) ];
  Sched.run sched;
  Sched.detach sched;
  let runs () = Stats.count m.Tutil.stats "ffs.syncer_runs" in
  let before = runs () in
  let fd = v.Vfs.open_file "/a" in
  Clock.advance m.Tutil.clock (m.Tutil.cfg.Config.fs.syncer_interval_s +. 1.0);
  v.Vfs.write fd ~off:0 (Tutil.payload 7 bs);
  Alcotest.(check int) "syncer ran" (before + 1) (runs ())

let test_fsck_clean () =
  let _, fs = fresh () in
  let v = Ffs.vfs fs in
  let fd = v.Vfs.create "/a" in
  v.Vfs.write fd ~off:0 (Tutil.payload 1 20000);
  Ffs.sync fs;
  let r = Ffs.fsck fs in
  Alcotest.(check int) "no leaks" 0 r.Ffs.leaked_blocks;
  Alcotest.(check int) "no cross allocation" 0 r.Ffs.cross_allocated

let test_fsck_fixes_bitmap_after_crash () =
  let m, fs = fresh () in
  let v = Ffs.vfs fs in
  (* Namespace durable first. *)
  let fd = v.Vfs.create "/a" in
  Ffs.sync fs;
  (* fsync writes the file's data blocks and inode (with fresh block
     pointers) but not the allocation bitmap; a crash here leaves blocks
     referenced by an inode yet marked free on disk. *)
  v.Vfs.write fd ~off:0 (Tutil.payload 1 40960);
  v.Vfs.fsync fd;
  Ffs.crash fs;
  let fs = Ffs.mount m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let r = Ffs.fsck fs in
  Alcotest.(check bool) "bitmap repaired" true r.Ffs.fixed;
  Alcotest.(check int) "no cross allocation" 0 r.Ffs.cross_allocated;
  (* After the repair, the image is clean and the data is intact. *)
  let r2 = Ffs.fsck fs in
  Alcotest.(check bool) "second pass clean" false r2.Ffs.fixed;
  let v = Ffs.vfs fs in
  let fd = v.Vfs.open_file "/a" in
  Tutil.check_bytes "data intact" (Tutil.payload 1 40960)
    (v.Vfs.read fd ~off:0 ~len:40960)

(* Every read request the device serves while [f] runs, in order, as
   (first block, blocks). *)
let reads_during disk f =
  let reads = ref [] in
  Disk.set_injector disk
    (Some
       {
         Disk.on_write = (fun ~blkno:_ ~nblocks -> nblocks);
         on_read =
           (fun ~blkno ~nblocks ->
             reads := (blkno, nblocks) :: !reads;
             false);
       });
  let x = Fun.protect ~finally:(fun () -> Disk.set_injector disk None) f in
  (x, List.rev !reads)

(* Mount reads the superblock, the bitmap and each inode-table block in
   use once (one block here: the root and the file fit in it), and
   loads every allocated inode with its indirect blocks; fsck then
   reads nothing more. Counted on a fresh file system and on one of a
   wal-mpl16 log spindle's size (60 MB) holding one 1 200-block file:
   two indirect blocks and the double-indirect block. The reports and
   simulated times are pinned; probing every inode number through its
   own table read took 81.2 s on the fresh file system, and reading all
   512 table blocks took 1.021 s and 1.087 s. *)
let test_one_inode_table_pass () =
  let case ~cfg ~file_blocks ~indirect ~report ~seconds =
    let m = Tutil.machine ~cfg () in
    let fs = Ffs.format m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
    let v = Ffs.vfs fs in
    let bs = v.Vfs.block_size in
    if file_blocks > 0 then begin
      let fd = v.Vfs.create "/log" in
      for i = 0 to file_blocks - 1 do
        v.Vfs.write fd ~off:(i * bs) (Tutil.payload i bs)
      done
    end;
    Ffs.sync fs;
    Ffs.crash fs;
    let t0 = Clock.now m.Tutil.clock in
    let r, reads =
      reads_during m.Tutil.disk (fun () ->
          Ffs.fsck (Ffs.mount m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg))
    in
    let bitmap_start, bitmap_blocks, _ = Fsck_ref.bitmap_extent m.Tutil.disk in
    Alcotest.(check int) "one-block requests" 0
      (List.length (List.filter (fun (_, n) -> n <> 1) reads));
    Alcotest.(check int) "no block read twice" (List.length reads)
      (List.length (List.sort_uniq compare reads));
    Alcotest.(check int) "superblock, table block in use, bitmap, indirect blocks"
      (2 + bitmap_blocks + indirect) (List.length reads);
    Alcotest.(check bool) "bitmap read" true (List.mem (bitmap_start, 1) reads);
    Alcotest.(check (list int)) "scanned, leaked, cross-allocated" report
      [ r.Ffs.scanned_inodes; r.Ffs.leaked_blocks; r.Ffs.cross_allocated ];
    Alcotest.(check bool) "fixed" false r.Ffs.fixed;
    Alcotest.(check string) "simulated seconds" seconds
      (Printf.sprintf "%h" (Clock.now m.Tutil.clock -. t0))
  in
  case ~cfg:(Tutil.small_config ()) ~file_blocks:0 ~indirect:0 ~report:[ 1; 0; 0 ]
    ~seconds:"0x1.1dd32e10eff1p-4";
  case ~cfg:(Config.scaled ~factor:0.2 Config.default) ~file_blocks:1200 ~indirect:3
    ~report:[ 2; 0; 0 ] ~seconds:"0x1.d4c98c7886a8p-4"

(* On a live file system fsck walks the file layer's allocation picture.
   A removed file's inode is free there at once, while its table slot
   keeps the record until the next flush: fsck does not scan it, and its
   blocks, which the remove returned to the bitmap, stay free. The probe
   of every slot on the image still finds the record. *)
let test_fsck_skips_unflushed_free () =
  let m, fs = fresh () in
  let v = Ffs.vfs fs in
  let fd = v.Vfs.create "/a" in
  v.Vfs.write fd ~off:0 (Tutil.payload 1 (20 * v.Vfs.block_size));
  Ffs.sync fs;
  let used = Ffs.free_blocks fs in
  v.Vfs.remove "/a";
  let freed = Ffs.free_blocks fs in
  Alcotest.(check bool) "remove freed the blocks" true (freed > used);
  let on_image, _ = Fsck_ref.fsck m.Tutil.disk in
  Alcotest.(check int) "the image still holds the record" 2 on_image.Ffs.scanned_inodes;
  let r = Ffs.fsck fs in
  (* [fixed]: the bitmap the remove changed is written out. *)
  Alcotest.(check (list int)) "scanned, leaked, cross-allocated" [ 1; 0; 0 ]
    [ r.Ffs.scanned_inodes; r.Ffs.leaked_blocks; r.Ffs.cross_allocated ];
  Alcotest.(check bool) "fixed" true r.Ffs.fixed;
  Alcotest.(check int) "blocks stay free" freed (Ffs.free_blocks fs);
  Ffs.sync fs;
  Ffs.crash fs;
  let fs = Ffs.mount m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let r = Ffs.fsck fs in
  Alcotest.(check (list int)) "after a flush and a remount" [ 1; 0; 0 ]
    [ r.Ffs.scanned_inodes; r.Ffs.leaked_blocks; r.Ffs.cross_allocated ];
  Alcotest.(check bool) "nothing to repair" false r.Ffs.fixed;
  Alcotest.(check int) "same free blocks" freed (Ffs.free_blocks fs)

(* After a crash at a random write, mount + fsck gives the report the
   probe of every inode slot gives (Fsck_ref) and leaves the bitmap it
   computes. Files are written sparsely, some past 1 036 blocks, so
   indirect and double-indirect blocks are in play. *)
let prop_fsck_matches_probe =
  let op =
    QCheck2.Gen.(
      frequency
        [
          (2, map (fun f -> `Create f) (int_bound 3));
          ( 5,
            map3
              (fun f off n -> `Write (f, off, n))
              (int_bound 3)
              (oneof [ int_bound 20; int_range 1030 1100 ])
              (int_range 1 3) );
          (3, map (fun f -> `Remove f) (int_bound 3));
          (2, map (fun f -> `Fsync f) (int_bound 3));
          (2, return `Sync);
        ])
  in
  (* Runs [ops] on a fresh file system, cutting the power at write
     [cut]; returns the disk and how many writes were issued. *)
  let run ops ~cut =
    let m, fs = fresh () in
    let writes = ref 0 in
    Disk.set_injector m.Tutil.disk
      (Some
         {
           Disk.on_write =
             (fun ~blkno:_ ~nblocks ->
               incr writes;
               if !writes = cut then 0 else nblocks);
           on_read = (fun ~blkno:_ ~nblocks:_ -> false);
         });
    let v = Ffs.vfs fs in
    let path f = Printf.sprintf "/f%d" f in
    let bs = v.Vfs.block_size in
    let apply = function
      | `Create f -> if not (v.Vfs.exists (path f)) then ignore (v.Vfs.create (path f))
      | `Write (f, off, n) ->
        if v.Vfs.exists (path f) then
          v.Vfs.write (v.Vfs.open_file (path f)) ~off:(off * bs) (Tutil.payload off (n * bs))
      | `Remove f -> if v.Vfs.exists (path f) then v.Vfs.remove (path f)
      | `Fsync f -> if v.Vfs.exists (path f) then v.Vfs.fsync (v.Vfs.open_file (path f))
      | `Sync -> Ffs.sync fs
    in
    (try List.iter apply ops with Disk.Injected_crash -> ());
    Ffs.crash fs;
    Disk.set_injector m.Tutil.disk None;
    (m, !writes)
  in
  (* The crash lands on one of the writes the sequence issues. *)
  Tutil.qtest ~count:300 "fsck equals the per-slot probe"
    QCheck2.Gen.(pair (list_size (int_range 5 40) op) nat)
    (fun (ops, k) ->
      let _, total = run ops ~cut:0 in
      let m, _ = run ops ~cut:(if total = 0 then 0 else 1 + (k mod total)) in
      let disk = m.Tutil.disk in
      let expected = Fsck_ref.fsck disk in
      let r = Ffs.fsck (Ffs.mount disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg) in
      (r, Fsck_ref.bitmap_blocks disk) = expected)

let full = Sys.getenv_opt "FAULTSIM_FULL" <> None

(* Mount reads only the table blocks the superblock counts as in use,
   so that count must reach the platter before any table block past it.
   File [i] of 40 is created in turn, each followed by a few random
   operations, so the count crosses two table-block boundaries (16
   slots a block); a final sync writes everything out. After a crash at
   a random write, the inodes mount finds are exactly those whose slot
   on the image holds a record (Fsck_ref's probe of every slot). Run
   with FAULTSIM_FULL set, it tries ten times as many cases. *)
let prop_mount_finds_every_slot =
  let files = 40 in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (3, map (fun f -> `Write f) (int_bound (files - 1)));
          (1, map (fun f -> `Remove f) (int_bound (files - 1)));
          (2, map (fun f -> `Fsync f) (int_bound (files - 1)));
          (2, return `Sync);
        ])
  in
  let run groups ~cut =
    let m, fs = fresh () in
    let writes = ref 0 in
    Disk.set_injector m.Tutil.disk
      (Some
         {
           Disk.on_write =
             (fun ~blkno:_ ~nblocks ->
               incr writes;
               if !writes = cut then 0 else nblocks);
           on_read = (fun ~blkno:_ ~nblocks:_ -> false);
         });
    let v = Ffs.vfs fs in
    let path f = Printf.sprintf "/f%d" f in
    let on f g = if v.Vfs.exists (path f) then g (v.Vfs.open_file (path f)) in
    let apply = function
      | `Write f -> on f (fun fd -> v.Vfs.write fd ~off:0 (Tutil.payload f 100))
      | `Remove f -> if v.Vfs.exists (path f) then v.Vfs.remove (path f)
      | `Fsync f -> on f v.Vfs.fsync
      | `Sync -> Ffs.sync fs
    in
    (try
       List.iteri
         (fun i ops ->
           ignore (v.Vfs.create (path i));
           List.iter apply ops)
         groups;
       Ffs.sync fs
     with Disk.Injected_crash -> ());
    Ffs.crash fs;
    Disk.set_injector m.Tutil.disk None;
    (m, !writes)
  in
  Tutil.qtest ~count:(if full then 3000 else 300)
    "mount finds every allocated slot"
    QCheck2.Gen.(pair (list_repeat files (list_size (int_bound 2) op)) nat)
    (fun (groups, k) ->
      let _, total = run groups ~cut:0 in
      let m, _ = run groups ~cut:(1 + (k mod total)) in
      let fs = Ffs.mount m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
      Ffs.allocated_inodes fs = Fsck_ref.allocated m.Tutil.disk)

(* A superblock whose count of table blocks in use is 0 or runs past
   the table is rejected; the whole table is a valid count. *)
let test_mount_rejects_bad_itable_count () =
  let m, fs = fresh () in
  Ffs.sync fs;
  Ffs.crash fs;
  let bitmap_start, _, _ = Fsck_ref.bitmap_extent m.Tutil.disk in
  let itable_blocks = bitmap_start - 1 in
  let mount_with used =
    let b = Disk.peek m.Tutil.disk 0 in
    Enc.set_u32 b 12 used;
    Disk.write m.Tutil.disk 0 b;
    Ffs.mount m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg
  in
  List.iter
    (fun used ->
      match mount_with used with
      | exception Vfs.Error (Vfs.Invalid, _) -> ()
      | _ -> Alcotest.failf "mounted with %d table blocks in use" used)
    [ 0; itable_blocks + 1 ];
  let fs = mount_with itable_blocks in
  Alcotest.(check (list int)) "the root alone" [ Fileops.root_inum ]
    (Ffs.allocated_inodes fs)

let test_free_blocks_accounting () =
  let _, fs = fresh () in
  let v = Ffs.vfs fs in
  let before = Ffs.free_blocks fs in
  let fd = v.Vfs.create "/x" in
  v.Vfs.write fd ~off:0 (Tutil.payload 1 (10 * v.Vfs.block_size));
  Ffs.sync fs;
  let after = Ffs.free_blocks fs in
  Alcotest.(check bool) "10+ blocks consumed" true (before - after >= 10);
  v.Vfs.remove "/x";
  Ffs.sync fs;
  Alcotest.(check bool) "blocks released" true (Ffs.free_blocks fs > after)

let test_protection_unsupported () =
  let _, fs = fresh () in
  let v = Ffs.vfs fs in
  ignore (v.Vfs.create "/f");
  Alcotest.(check bool) "set_protected rejected" true
    (match v.Vfs.set_protected "/f" true with
    | exception Vfs.Error (Vfs.Not_supported, _) -> true
    | _ -> false)

let test_no_space () =
  let cfg = Tutil.small_config () in
  let cfg = { cfg with Config.disk = { cfg.Config.disk with nblocks = 768 } } in
  let m = Tutil.machine ~cfg () in
  let fs = Ffs.format m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Ffs.vfs fs in
  let fd = v.Vfs.create "/big" in
  Alcotest.(check bool) "fills up" true
    (match
       for i = 0 to 2000 do
         v.Vfs.write fd ~off:(i * v.Vfs.block_size) (Tutil.payload i v.Vfs.block_size);
         if i mod 16 = 0 then Ffs.sync fs
       done
     with
    | exception Vfs.Error (Vfs.No_space, _) -> true
    | () -> false)

let platter_digest disk =
  let bs = Disk.block_size disk in
  let img = Bytes.create (Disk.nblocks disk * bs) in
  for i = 0 to Disk.nblocks disk - 1 do
    Bytes.blit (Disk.peek disk i) 0 img (i * bs) bs
  done;
  Digest.to_hex (Digest.bytes img)

(* A file past the single-indirect range, grown and rewritten between
   flushes: each flush writes a changed indirect block, the
   double-indirect block, the inode-table block and the bitmap, every
   one encoded into a pool buffer that goes back after the sweep, so
   once the first flush has stocked the pool no later one allocates a
   buffer or keeps one. After a crash and a remount the file reads back
   and fsck finds nothing to fix. The platter's digest is pinned, so an
   encoder that moves one byte on disk fails the test. *)
let test_indirect_blocks_flush_in_place () =
  let m, fs = fresh () in
  let v = Ffs.vfs fs in
  let bs = v.Vfs.block_size in
  let per = Inode.per_indirect ~block_size:bs in
  let base = Inode.ndirect + per + 40 and rounds = 4 in
  let tags = Array.init (base + rounds) Fun.id in
  let fd = v.Vfs.create "/big" in
  let put lb tag =
    tags.(lb) <- tag;
    v.Vfs.write fd ~off:(lb * bs) (Tutil.payload tag bs)
  in
  for lb = 0 to base - 1 do
    put lb lb
  done;
  Ffs.sync fs;
  let made = Blockpool.made bs and free = Blockpool.free bs in
  for r = 1 to rounds do
    (* One new block in the second indirect block's range, and a rewrite
       under each of the inode's addressing regimes. *)
    put (base + r - 1) (base + r - 1);
    List.iter
      (fun lb -> put lb (lb + (1000 * r)))
      [ 3; Inode.ndirect + 5; Inode.ndirect + per + 7 ];
    Ffs.sync fs
  done;
  Alcotest.(check int) "later flushes allocate no buffer" made (Blockpool.made bs);
  Alcotest.(check int) "and give every buffer back" free (Blockpool.free bs);
  Ffs.crash fs;
  Alcotest.(check string) "platter digest"
    "aaab5b4e9005c22dfba7237f5e44a131" (platter_digest m.Tutil.disk);
  let fs = Ffs.mount m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let r = Ffs.fsck fs in
  Alcotest.(check int) "no leaks" 0 r.Ffs.leaked_blocks;
  Alcotest.(check int) "no cross allocation" 0 r.Ffs.cross_allocated;
  Alcotest.(check bool) "nothing to fix" false r.Ffs.fixed;
  let v = Ffs.vfs fs in
  let fd = v.Vfs.open_file "/big" in
  let expected =
    Bytes.concat Bytes.empty
      (List.map (fun tag -> Tutil.payload tag bs) (Array.to_list tags))
  in
  let len = Bytes.length expected in
  Alcotest.(check int) "size" len (v.Vfs.size fd);
  Tutil.check_bytes "file reads back" expected (v.Vfs.read fd ~off:0 ~len)

let () =
  Alcotest.run "tx_ffs"
    [
      ("conformance", Conformance.cases Conformance.ffs);
      ( "layout",
        [
          Alcotest.test_case "sequential contiguity" `Quick
            test_sequential_layout_is_contiguous;
          Alcotest.test_case "update in place" `Quick
            test_update_in_place_preserves_layout;
          Alcotest.test_case "free block accounting" `Quick
            test_free_blocks_accounting;
        ] );
      ( "syncer",
        [
          Alcotest.test_case "delayed writes" `Quick test_syncer_flushes_delayed_writes;
          Alcotest.test_case "after overlapping fsyncs" `Quick
            test_syncer_after_overlapping_fsyncs;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean image" `Quick test_fsck_clean;
          Alcotest.test_case "repairs bitmap" `Quick test_fsck_fixes_bitmap_after_crash;
          Alcotest.test_case "one inode-table pass" `Quick test_one_inode_table_pass;
          Alcotest.test_case "unflushed free" `Quick test_fsck_skips_unflushed_free;
          prop_fsck_matches_probe;
          prop_mount_finds_every_slot;
          Alcotest.test_case "bad inode-table count" `Quick
            test_mount_rejects_bad_itable_count;
          Alcotest.test_case "indirect blocks flush in place" `Quick
            test_indirect_blocks_flush_in_place;
        ] );
      ( "misc",
        [
          Alcotest.test_case "protection unsupported" `Quick
            test_protection_unsupported;
          Alcotest.test_case "no space" `Quick test_no_space;
        ] );
      ("model", [ Conformance.prop_model ~count:25 Conformance.ffs ]);
    ]
