(* File-system conformance suite: behavioural cases every Vfs.t
   implementation must satisfy, and a model-based property, run against
   both the log-structured and the read-optimized file systems. A harness
   holds one file system on its own machine. *)

type harness = {
  machine : Tutil.machine;
  vfs : unit -> Vfs.t;  (* the surface of the current file system *)
  crash : unit -> unit;  (* power failure: volatile state is lost *)
  mount : unit -> unit;  (* mount the image again *)
  check : unit -> unit;  (* consistency check: Lfs.check or Ffs.fsck *)
}

let lfs () =
  let m = Tutil.machine () in
  let fs = ref (Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg) in
  {
    machine = m;
    vfs = (fun () -> Lfs.vfs !fs);
    crash = (fun () -> Lfs.crash !fs);
    mount = (fun () -> fs := Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg);
    check = (fun () -> Lfs.check !fs);
  }

let ffs () =
  let m = Tutil.machine () in
  let fs = ref (Ffs.format m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg) in
  {
    machine = m;
    vfs = (fun () -> Ffs.vfs !fs);
    crash = (fun () -> Ffs.crash !fs);
    mount = (fun () -> fs := Ffs.mount m.Tutil.disk m.Tutil.clock m.Tutil.stats m.Tutil.cfg);
    check =
      (fun () ->
        let r = Ffs.fsck !fs in
        if r.Ffs.cross_allocated > 0 then
          Alcotest.failf "fsck: %d cross-allocated blocks" r.Ffs.cross_allocated);
  }

(* Crash, mount the image again and check it. *)
let remount h =
  h.crash ();
  h.mount ();
  h.check ()

let sync_remount h =
  (h.vfs ()).Vfs.sync ();
  remount h

let bs h = (h.vfs ()).Vfs.block_size

let test_write_read h () =
  let v = h.vfs () in
  let fd = v.Vfs.create "/c/basic" in
  let data = Tutil.payload 11 1000 in
  v.Vfs.write fd ~off:0 data;
  Tutil.check_bytes "roundtrip" data (v.Vfs.read fd ~off:0 ~len:1000)

let test_overwrite h () =
  let v = h.vfs () in
  let n = 3 * bs h in
  let fd = v.Vfs.create "/c/over" in
  v.Vfs.write fd ~off:0 (Tutil.payload 1 n);
  let newer = Tutil.payload 2 n in
  v.Vfs.write fd ~off:0 newer;
  Tutil.check_bytes "latest wins" newer (v.Vfs.read fd ~off:0 ~len:n);
  Alcotest.(check int) "size unchanged" n (v.Vfs.size fd)

let test_append_growth h () =
  let v = h.vfs () in
  let fd = v.Vfs.create "/c/log" in
  let chunks = List.init 20 (fun i -> Tutil.payload i 300) in
  List.iteri (fun i c -> v.Vfs.write fd ~off:(i * 300) c) chunks;
  Alcotest.(check int) "size" 6000 (v.Vfs.size fd);
  List.iteri
    (fun i c -> Tutil.check_bytes "chunk" c (v.Vfs.read fd ~off:(i * 300) ~len:300))
    chunks

let test_deep_paths h () =
  let v = h.vfs () in
  v.Vfs.mkdir "/c/a";
  v.Vfs.mkdir "/c/a/b";
  v.Vfs.mkdir "/c/a/b/c";
  let fd = v.Vfs.create "/c/a/b/c/leaf" in
  v.Vfs.write fd ~off:0 (Bytes.of_string "x");
  Alcotest.(check bool) "resolves" true (v.Vfs.exists "/c/a/b/c/leaf");
  Alcotest.(check (list string)) "listing" [ "leaf" ]
    (List.map fst (v.Vfs.readdir "/c/a/b/c"))

let test_remove_then_recreate h () =
  let v = h.vfs () in
  let fd = v.Vfs.create "/c/tmp" in
  v.Vfs.write fd ~off:0 (Tutil.payload 5 5000);
  v.Vfs.remove "/c/tmp";
  Alcotest.(check bool) "gone" false (v.Vfs.exists "/c/tmp");
  let fd = v.Vfs.create "/c/tmp" in
  Alcotest.(check int) "fresh file empty" 0 (v.Vfs.size fd);
  Alcotest.(check string) "no stale bytes" ""
    (Bytes.to_string (v.Vfs.read fd ~off:0 ~len:10))

let test_durability h () =
  let v = h.vfs () in
  let data = Tutil.payload 21 (2 * bs h) in
  let fd = v.Vfs.create "/c/durable" in
  v.Vfs.write fd ~off:0 data;
  sync_remount h;
  let v = h.vfs () in
  let fd = v.Vfs.open_file "/c/durable" in
  Tutil.check_bytes "survives remount" data (v.Vfs.read fd ~off:0 ~len:(2 * bs h));
  (* And the namespace survives too. *)
  Alcotest.(check bool) "dir intact" true (v.Vfs.exists "/c")

let test_many_files_durable h () =
  let v = h.vfs () in
  let files =
    List.init 30 (fun i ->
        let p = Printf.sprintf "/c/n%02d" i in
        let d = Tutil.payload (100 + i) (137 * (i + 1)) in
        let fd = v.Vfs.create p in
        v.Vfs.write fd ~off:0 d;
        (p, d))
  in
  sync_remount h;
  let v = h.vfs () in
  List.iter
    (fun (p, d) ->
      let fd = v.Vfs.open_file p in
      Alcotest.(check int) (p ^ " size") (Bytes.length d) (v.Vfs.size fd);
      Tutil.check_bytes p d (v.Vfs.read fd ~off:0 ~len:(Bytes.length d)))
    files

let test_error_paths h () =
  let v = h.vfs () in
  let expect code thunk =
    match thunk () with
    | exception Vfs.Error (c, _) -> c = code
    | _ -> false
  in
  Alcotest.(check bool) "open missing" true
    (expect Vfs.Not_found (fun () -> v.Vfs.open_file "/c/nothing"));
  ignore (v.Vfs.create "/c/f1");
  Alcotest.(check bool) "create duplicate" true
    (expect Vfs.Exists (fun () -> v.Vfs.create "/c/f1"));
  Alcotest.(check bool) "open dir as file" true
    (expect Vfs.Is_dir (fun () -> v.Vfs.open_file "/c"));
  v.Vfs.mkdir "/c/d1";
  ignore (v.Vfs.create "/c/d1/inner");
  Alcotest.(check bool) "remove non-empty dir" true
    (expect Vfs.Invalid (fun () -> v.Vfs.remove "/c/d1"))

let test_fsync_durability h () =
  let v = h.vfs () in
  let fd = v.Vfs.create "/c/fsynced" in
  let data = Tutil.payload 31 (3 * bs h) in
  v.Vfs.write fd ~off:0 data;
  v.Vfs.fsync fd;
  Tutil.check_bytes "readable after fsync" data (v.Vfs.read fd ~off:0 ~len:(3 * bs h))

let test_stat_on_directory h () =
  let v = h.vfs () in
  v.Vfs.mkdir "/c/statdir";
  let st = v.Vfs.stat "/c/statdir" in
  Alcotest.(check bool) "kind is Dir" true (st.Vfs.kind = Vfs.Dir);
  let st_root = v.Vfs.stat "/" in
  Alcotest.(check bool) "root is Dir" true (st_root.Vfs.kind = Vfs.Dir)

let test_readdir_kinds h () =
  let v = h.vfs () in
  v.Vfs.mkdir "/c/mixed";
  v.Vfs.mkdir "/c/mixed/sub";
  ignore (v.Vfs.create "/c/mixed/file");
  let entries = List.sort compare (v.Vfs.readdir "/c/mixed") in
  Alcotest.(check bool) "file and dir kinds reported" true
    (entries = [ ("file", Vfs.File); ("sub", Vfs.Dir) ])

let test_zero_length_file h () =
  let v = h.vfs () in
  let fd = v.Vfs.create "/c/empty" in
  Alcotest.(check int) "size 0" 0 (v.Vfs.size fd);
  Alcotest.(check string) "empty read" ""
    (Bytes.to_string (v.Vfs.read fd ~off:0 ~len:100));
  sync_remount h;
  let v = h.vfs () in
  Alcotest.(check bool) "survives remount" true (v.Vfs.exists "/c/empty");
  Alcotest.(check int) "still size 0" 0 (v.Vfs.size (v.Vfs.open_file "/c/empty"))

let test_truncate_to_zero_and_rewrite h () =
  let v = h.vfs () in
  let fd = v.Vfs.create "/c/reset" in
  v.Vfs.write fd ~off:0 (Tutil.payload 77 (4 * bs h));
  v.Vfs.truncate fd 0;
  Alcotest.(check int) "emptied" 0 (v.Vfs.size fd);
  let fresh = Tutil.payload 78 500 in
  v.Vfs.write fd ~off:0 fresh;
  Tutil.check_bytes "rewritten" fresh (v.Vfs.read fd ~off:0 ~len:500);
  Alcotest.(check int) "new size" 500 (v.Vfs.size fd)

(* After a crash every operation of the old surface raises, not just the
   ones that reach the disk: a crashed file system must not keep
   answering from its lost volatile state. *)
let test_crashed_raises h () =
  let v = h.vfs () in
  v.Vfs.sync ();
  let fd = v.Vfs.create "/c/x" in
  v.Vfs.write fd ~off:0 (Tutil.payload 9 5000);
  h.crash ();
  let raises name f =
    Alcotest.check_raises name Vfs.Crashed (fun () -> ignore (f ()))
  in
  raises "size" (fun () -> v.Vfs.size fd);
  raises "exists" (fun () -> v.Vfs.exists "/c/x");
  raises "stat" (fun () -> v.Vfs.stat "/c/x");
  raises "readdir" (fun () -> v.Vfs.readdir "/c");
  raises "open" (fun () -> v.Vfs.open_file "/c/x");
  raises "read" (fun () -> v.Vfs.read fd ~off:0 ~len:10);
  raises "read_block" (fun () -> v.Vfs.read_block fd 0);
  raises "write" (fun () -> v.Vfs.write fd ~off:0 (Bytes.of_string "y"));
  raises "truncate" (fun () -> v.Vfs.truncate fd 0);
  raises "create" (fun () -> v.Vfs.create "/c/y");
  raises "mkdir" (fun () -> v.Vfs.mkdir "/c/d");
  raises "remove" (fun () -> v.Vfs.remove "/c/x");
  raises "fsync" (fun () -> v.Vfs.fsync fd);
  raises "sync" (fun () -> v.Vfs.sync ());
  raises "set_protected" (fun () -> v.Vfs.set_protected "/c/x" true);
  (* The image itself is fine: the last sync made /c durable. *)
  h.mount ();
  h.check ();
  Alcotest.(check bool) "remounted" true ((h.vfs ()).Vfs.exists "/c")

(* [read_block] is [read] of one whole block without the copy. Twin file
   systems run the same operations, then one reads each block of a file
   with [read] and the other with [read_block], first from disk and then
   from the cache: the bytes, the simulated clock and the whole [Stats]
   report must match after every call. The partial last block is not a
   whole block and is refused. *)
let test_read_block make () =
  let twin () =
    let h = make () in
    let v = h.vfs () in
    let bs = v.Vfs.block_size in
    let fd = v.Vfs.create "/blocks" in
    v.Vfs.write fd ~off:0 (Tutil.payload 5 ((3 * bs) + 100));
    v.Vfs.sync ();
    remount h;
    (h, h.vfs (), fd, bs)
  in
  let h1, v1, fd1, bs = twin () in
  let h2, v2, fd2, _ = twin () in
  let report h = Format.asprintf "%a" Stats.pp h.machine.Tutil.stats in
  for pass = 1 to 2 do
    for b = 0 to 2 do
      let name = Printf.sprintf "pass %d block %d" pass b in
      let copy = v1.Vfs.read fd1 ~off:(b * bs) ~len:bs in
      let view = v2.Vfs.read_block fd2 b in
      Tutil.check_bytes (name ^ ": bytes") copy view;
      Alcotest.(check (float 0.0))
        (name ^ ": clock") (Clock.now h1.machine.Tutil.clock)
        (Clock.now h2.machine.Tutil.clock);
      Alcotest.(check string) (name ^ ": stats") (report h1) (report h2)
    done
  done;
  Alcotest.(check bool) "partial block refused" true
    (match v2.Vfs.read_block fd2 3 with
    | exception Vfs.Error (Vfs.Invalid, _) -> true
    | _ -> false)

(* [prefetch] reads each mapped block of the list once, in ascending
   address order, and nothing for a block past the end of the file, a
   hole or a block already cached; the reads that follow are hits and
   return the file's bytes. Reads are told apart by the bytes they
   return: each written block holds its own payload. *)
let test_prefetch make () =
  let h = make () in
  let v = h.vfs () in
  let bs = v.Vfs.block_size in
  let fd = v.Vfs.create "/pf" in
  let written = [ 0; 1; 2; 3; 5; 6; 7 ] in
  List.iter (fun b -> v.Vfs.write fd ~off:(b * bs) (Tutil.payload b bs)) written;
  v.Vfs.sync ();
  remount h;
  let v = h.vfs () in
  let block_of = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace block_of (Bytes.to_string (Tutil.payload b bs)) b) written;
  let counting f =
    List.filter_map
      (fun (name, blk, b) -> Option.map (fun b -> (name, blk, b)) b)
      (snd (Tutil.tagged_reads h.machine.Tutil.disks block_of f))
  in
  (* Block 4 is a hole, block 8 lies past the end, block 6 comes twice. *)
  let wanted = [ 6; 2; 8; 4; 7; 0; 6; 5 ] in
  let fetched = counting (fun () -> v.Vfs.prefetch (List.map (fun b -> (fd, b)) wanted)) in
  Alcotest.(check (list int)) "each mapped block once" [ 0; 2; 5; 6; 7 ]
    (List.sort compare (List.map (fun (_, _, b) -> b) fetched));
  List.iter
    (fun (name, _) ->
      let blks = List.filter_map (fun (n, a, _) -> if n = name then Some a else None) fetched in
      Alcotest.(check (list int)) (name ^ ": ascending") (List.sort_uniq compare blks) blks)
    (Diskset.members h.machine.Tutil.disks);
  let again = counting (fun () -> v.Vfs.prefetch (List.map (fun b -> (fd, b)) wanted)) in
  Alcotest.(check int) "cached blocks are not read again" 0 (List.length again);
  let hits =
    counting (fun () ->
        List.iter
          (fun b -> Tutil.check_bytes "bytes" (Tutil.payload b bs) (v.Vfs.read_block fd b))
          [ 0; 2; 5; 6; 7 ])
  in
  Alcotest.(check int) "reads after the prefetch hit" 0 (List.length hits)

(* Model-based property: random operation sequences against an in-memory
   map of path -> contents. Ops: write (extending), remove, truncate to
   half, truncate growing past the end (the new range reads as zeros),
   a write into a nested directory, sync, and crash + remount + check.
   Only synced state survives a remount. *)
let prop_model ~count make =
  let op_gen =
    QCheck2.Gen.(
      frequency
        [
          (6, map2 (fun f (off, len) -> `Write (f, off, len))
                (int_bound 4) (pair (int_bound 3000) (int_range 1 2000)));
          (2, map (fun f -> `Remove f) (int_bound 4));
          (2, map (fun f -> `Truncate f) (int_bound 4));
          (1, map2 (fun f n -> `Grow (f, n)) (int_bound 4) (int_range 1 5000));
          (1, map2 (fun f len -> `Nested (f, len)) (int_bound 2) (int_range 1 3000));
          (1, return `Sync);
          (1, return `Remount);
        ])
  in
  Tutil.qtest ~count "model equivalence" QCheck2.Gen.(list_size (int_range 1 40) op_gen)
    (fun ops ->
      let h = make () in
      let model : (string, bytes) Hashtbl.t = Hashtbl.create 8 in
      let synced = ref [] in
      let path i = Printf.sprintf "/file%d" i in
      let counter = ref 0 in
      let ok = ref true in
      let write v p ~off data =
        let fd = if v.Vfs.exists p then v.Vfs.open_file p else v.Vfs.create p in
        v.Vfs.write fd ~off data;
        let len = Bytes.length data in
        let old = Option.value (Hashtbl.find_opt model p) ~default:Bytes.empty in
        let b = Bytes.make (max (Bytes.length old) (off + len)) '\000' in
        Bytes.blit old 0 b 0 (Bytes.length old);
        Bytes.blit data 0 b off len;
        Hashtbl.replace model p b
      in
      List.iter
        (fun op ->
          let v = h.vfs () in
          incr counter;
          match op with
          | `Write (i, off, len) -> write v (path i) ~off (Tutil.payload !counter len)
          | `Nested (i, len) ->
            List.iter
              (fun d -> if not (v.Vfs.exists d) then v.Vfs.mkdir d)
              [ "/d"; "/d/sub" ];
            write v (Printf.sprintf "/d/sub/f%d" i) ~off:0 (Tutil.payload !counter len)
          | `Remove i ->
            let p = path i in
            if v.Vfs.exists p then begin
              v.Vfs.remove p;
              Hashtbl.remove model p
            end
          | `Truncate i ->
            let p = path i in
            if v.Vfs.exists p then begin
              let fd = v.Vfs.open_file p in
              let n = v.Vfs.size fd / 2 in
              v.Vfs.truncate fd n;
              let old = Hashtbl.find model p in
              Hashtbl.replace model p (Bytes.sub old 0 (min n (Bytes.length old)))
            end
          | `Grow (i, extra) ->
            let p = path i in
            if v.Vfs.exists p then begin
              let fd = v.Vfs.open_file p in
              let size = v.Vfs.size fd in
              v.Vfs.truncate fd (size + extra);
              let zeros = Bytes.make extra '\000' in
              ok := !ok && Bytes.equal (v.Vfs.read fd ~off:size ~len:extra) zeros;
              let old = Hashtbl.find model p in
              Hashtbl.replace model p (Bytes.cat old zeros)
            end
          | `Sync ->
            v.Vfs.sync ();
            synced := Hashtbl.fold (fun k d acc -> (k, Bytes.copy d) :: acc) model []
          | `Remount ->
            remount h;
            Hashtbl.reset model;
            List.iter (fun (k, d) -> Hashtbl.replace model k d) !synced)
        ops;
      (* The image must be internally consistent after every sequence. *)
      h.check ();
      let v = h.vfs () in
      Hashtbl.fold
        (fun p data ok ->
          ok
          && v.Vfs.exists p
          &&
          let fd = v.Vfs.open_file p in
          v.Vfs.size fd = Bytes.length data
          && Bytes.equal (v.Vfs.read fd ~off:0 ~len:(Bytes.length data)) data)
        model !ok)

let cases make =
  let with_harness f () =
    let h = make () in
    let v = h.vfs () in
    v.Vfs.mkdir "/c";
    f h ()
  in
  [
    Alcotest.test_case "write/read" `Quick (with_harness test_write_read);
    Alcotest.test_case "overwrite" `Quick (with_harness test_overwrite);
    Alcotest.test_case "append growth" `Quick (with_harness test_append_growth);
    Alcotest.test_case "deep paths" `Quick (with_harness test_deep_paths);
    Alcotest.test_case "remove/recreate" `Quick
      (with_harness test_remove_then_recreate);
    Alcotest.test_case "durability" `Quick (with_harness test_durability);
    Alcotest.test_case "many files durable" `Quick
      (with_harness test_many_files_durable);
    Alcotest.test_case "error paths" `Quick (with_harness test_error_paths);
    Alcotest.test_case "fsync durability" `Quick (with_harness test_fsync_durability);
    Alcotest.test_case "stat on directory" `Quick (with_harness test_stat_on_directory);
    Alcotest.test_case "readdir kinds" `Quick (with_harness test_readdir_kinds);
    Alcotest.test_case "zero-length file" `Quick (with_harness test_zero_length_file);
    Alcotest.test_case "truncate to zero" `Quick
      (with_harness test_truncate_to_zero_and_rewrite);
    Alcotest.test_case "crashed raises" `Quick (with_harness test_crashed_raises);
    Alcotest.test_case "read_block is read without the copy" `Quick
      (test_read_block make);
    Alcotest.test_case "prefetch" `Quick (test_prefetch make);
  ]
