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

(* fsck probes every inode number, each through a one-block read of the
   inode table. The probes view the block in place: one copy of it per
   probe would allocate 8 191 blocks in the major heap. The report and
   the simulated time are pinned: the reads are the same requests. *)
let test_fsck_probes_without_copies () =
  let m, fs = fresh () in
  let t0 = Clock.now m.Tutil.clock in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r = Ffs.fsck fs in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  let elapsed = Clock.now m.Tutil.clock -. t0 in
  Alcotest.(check (list int)) "scanned, leaked, cross-allocated" [ 1; 0; 0 ]
    [ r.Ffs.scanned_inodes; r.Ffs.leaked_blocks; r.Ffs.cross_allocated ];
  Alcotest.(check bool) "fixed" false r.Ffs.fixed;
  Alcotest.(check string) "simulated seconds" "0x1.44b12ceb55085p+6"
    (Printf.sprintf "%h" elapsed);
  let copies = float_of_int (8191 * m.Tutil.cfg.Config.disk.Config.block_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words, under a tenth of %.0f" words copies)
    true
    (words < copies /. 10.)

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
        [ Alcotest.test_case "delayed writes" `Quick test_syncer_flushes_delayed_writes ] );
      ( "fsck",
        [
          Alcotest.test_case "clean image" `Quick test_fsck_clean;
          Alcotest.test_case "repairs bitmap" `Quick test_fsck_fixes_bitmap_after_crash;
          Alcotest.test_case "probes without copies" `Quick test_fsck_probes_without_copies;
        ] );
      ( "misc",
        [
          Alcotest.test_case "protection unsupported" `Quick
            test_protection_unsupported;
          Alcotest.test_case "no space" `Quick test_no_space;
        ] );
      ("model", [ Conformance.prop_model ~count:25 Conformance.ffs ]);
    ]
