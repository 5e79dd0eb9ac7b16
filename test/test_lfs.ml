(* Tests for the log-structured file system: basic I/O, metadata layouts,
   the cleaner, checkpointing, crash recovery, and a model-based property
   test of random operation sequences. *)

let remount (m : Tutil.machine) fs =
  Lfs.crash fs;
  Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg

let make_harness () =
  let m = Tutil.machine () in
  let fs = ref (Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg) in
  {
    Conformance.vfs = (fun () -> Lfs.vfs !fs);
    sync_remount =
      (fun () ->
        Lfs.sync !fs;
        fs := remount m !fs);
  }

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

(* Model-based property test: random create/write/remove/sync/remount
   sequences must match an in-memory map of path -> contents. Only synced
   state is compared after a remount. *)
let prop_model =
  let op_gen =
    QCheck2.Gen.(
      frequency
        [
          (6, map2 (fun f (off, len) -> `Write (f, off, len))
                (int_bound 4) (pair (int_bound 3000) (int_range 1 2000)));
          (2, map (fun f -> `Remove f) (int_bound 4));
          (2, map (fun f -> `Truncate f) (int_bound 4));
          (1, return `Sync);
          (1, return `Remount);
        ])
  in
  Tutil.qtest ~count:30 "model equivalence" QCheck2.Gen.(list_size (int_range 1 40) op_gen)
    (fun ops ->
      let m, fs0 = Tutil.fresh_lfs () in
      let fs = ref fs0 in
      let model : (string, bytes) Hashtbl.t = Hashtbl.create 8 in
      let synced = ref [] in
      let path i = Printf.sprintf "/file%d" i in
      let counter = ref 0 in
      List.iter
        (fun op ->
          let v = Lfs.vfs !fs in
          incr counter;
          match op with
          | `Write (i, off, len) ->
            let p = path i in
            let data = Tutil.payload !counter len in
            let fd =
              if v.Vfs.exists p then v.Vfs.open_file p else v.Vfs.create p
            in
            v.Vfs.write fd ~off data;
            let old = Option.value (Hashtbl.find_opt model p) ~default:Bytes.empty in
            let size = max (Bytes.length old) (off + len) in
            let b = Bytes.make size '\000' in
            Bytes.blit old 0 b 0 (Bytes.length old);
            Bytes.blit data 0 b off len;
            Hashtbl.replace model p b
          | `Remove i ->
            let p = path i in
            if v.Vfs.exists p then begin
              v.Vfs.remove p;
              Hashtbl.remove model p
            end
          | `Truncate i ->
            let p = path i in
            if v.Vfs.exists p then begin
              let n = v.Vfs.size (v.Vfs.open_file p) / 2 in
              v.Vfs.truncate (v.Vfs.open_file p) n;
              let old = Hashtbl.find model p in
              Hashtbl.replace model p
                (Bytes.sub old 0 (min n (Bytes.length old)))
            end
          | `Sync ->
            v.Vfs.sync ();
            synced :=
              Hashtbl.fold (fun k d acc -> (k, Bytes.copy d) :: acc) model []
          | `Remount ->
            fs := remount m !fs;
            Hashtbl.reset model;
            List.iter (fun (k, d) -> Hashtbl.replace model k d) !synced)
        ops;
      (* The image must be internally consistent after every sequence. *)
      Lfs.check !fs;
      (* Final check against the live model. *)
      let v = Lfs.vfs !fs in
      Hashtbl.fold
        (fun p data ok ->
          ok
          && v.Vfs.exists p
          &&
          let fd = v.Vfs.open_file p in
          v.Vfs.size fd = Bytes.length data
          && Bytes.equal (v.Vfs.read fd ~off:0 ~len:(Bytes.length data)) data)
        model true)

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
  Lfs.release_snapshot fs snap;
  Alcotest.(check int) "no snapshots left" 0 (Lfs.snapshots fs);
  Alcotest.(check bool) "released view rejected" true
    (match Lfs.snapshot_view fs snap with
    | exception Invalid_argument _ -> true
    | _ -> false)

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

let () =
  Alcotest.run "tx_lfs"
    [
      ("conformance", Conformance.cases make_harness);
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
          Alcotest.test_case "repeated crash cycles" `Quick
            test_repeated_crash_recovery_cycles;
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
      ("model", [ prop_model ]);
    ]
