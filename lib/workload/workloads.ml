type andrew_params = { dirs : int; files_per_dir : int; file_bytes : int }

let default_andrew = { dirs = 20; files_per_dir = 10; file_bytes = 6_000 }

type phase_times = (string * float) list

let payload rng len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (Rng.int rng 256))
  done;
  b

let timed clock name f acc =
  let t0 = Clock.now clock in
  f ();
  acc := (name, Clock.now clock -. t0) :: !acc

let dir_path d = Printf.sprintf "/andrew/d%02d" d
let src_path d f = Printf.sprintf "/andrew/d%02d/src%02d.c" d f
let obj_path d f = Printf.sprintf "/andrew/d%02d/src%02d.o" d f

let andrew clock stats cfg (vfs : Vfs.t) rng p =
  let phases = ref [] in
  let each f =
    for d = 0 to p.dirs - 1 do
      for i = 0 to p.files_per_dir - 1 do
        f d i
      done
    done
  in
  (* Phase 1: create the directory hierarchy. *)
  timed clock "mkdir" (fun () ->
      vfs.Vfs.mkdir "/andrew";
      for d = 0 to p.dirs - 1 do
        vfs.Vfs.mkdir (dir_path d)
      done)
    phases;
  (* Phase 2: copy in the small source files. *)
  timed clock "copy" (fun () ->
      each (fun d i ->
          let fd = vfs.Vfs.create (src_path d i) in
          vfs.Vfs.write fd ~off:0 (payload rng p.file_bytes)))
    phases;
  (* Phase 3: recursive stat traversal. *)
  timed clock "stat" (fun () ->
      List.iter
        (fun (name, kind) ->
          if kind = Vfs.Dir then
            List.iter
              (fun (leaf, _) -> ignore (vfs.Vfs.stat ("/andrew/" ^ name ^ "/" ^ leaf)))
              (vfs.Vfs.readdir ("/andrew/" ^ name)))
        (vfs.Vfs.readdir "/andrew"))
    phases;
  (* Phase 4: read every file. *)
  timed clock "read" (fun () ->
      each (fun d i ->
          let fd = vfs.Vfs.open_file (src_path d i) in
          ignore (vfs.Vfs.read fd ~off:0 ~len:p.file_bytes)))
    phases;
  (* Phase 5: compile — burn CPU per unit and write the objects. *)
  timed clock "compile" (fun () ->
      each (fun d i ->
          let fd = vfs.Vfs.open_file (src_path d i) in
          ignore (vfs.Vfs.read fd ~off:0 ~len:p.file_bytes);
          Cpu.charge clock stats cfg.Config.cpu Cpu.Compile_unit;
          let out = vfs.Vfs.create (obj_path d i) in
          vfs.Vfs.write out ~off:0 (payload rng p.file_bytes)))
    phases;
  vfs.Vfs.sync ();
  List.rev !phases

type bigfile_params = { sizes_bytes : int list }

let default_bigfile =
  { sizes_bytes = [ 1_000_000; 5_000_000; 10_000_000 ] }

let bigfile clock _stats _cfg (vfs : Vfs.t) rng p =
  let phases = ref [] in
  vfs.Vfs.mkdir "/bigfile";
  let chunk = 64 * 1024 in
  let write_file path size =
    let fd = vfs.Vfs.create path in
    let off = ref 0 in
    while !off < size do
      let n = min chunk (size - !off) in
      vfs.Vfs.write fd ~off:!off (payload rng n);
      off := !off + n
    done
  in
  let copy_file src dst =
    let s = vfs.Vfs.open_file src in
    let size = vfs.Vfs.size s in
    let d = vfs.Vfs.create dst in
    let off = ref 0 in
    while !off < size do
      let n = min chunk (size - !off) in
      vfs.Vfs.write d ~off:!off (vfs.Vfs.read s ~off:!off ~len:n);
      off := !off + n
    done
  in
  List.iteri
    (fun i size ->
      let mb = size / 1_000_000 in
      let orig = Printf.sprintf "/bigfile/f%d" i in
      let dup = Printf.sprintf "/bigfile/f%d.copy" i in
      timed clock (Printf.sprintf "create-%dMB" mb) (fun () ->
          write_file orig size;
          vfs.Vfs.fsync (vfs.Vfs.open_file orig))
        phases;
      timed clock (Printf.sprintf "copy-%dMB" mb) (fun () ->
          copy_file orig dup;
          vfs.Vfs.fsync (vfs.Vfs.open_file dup))
        phases;
      timed clock (Printf.sprintf "remove-%dMB" mb) (fun () ->
          vfs.Vfs.remove orig;
          vfs.Vfs.remove dup;
          vfs.Vfs.sync ())
        phases)
    p.sizes_bytes;
  List.rev !phases

let k_records = Stats.counter "scan.records"

let scan clock stats cfg (vfs : Vfs.t) (db : Tpcb.db) =
  let t0 = Clock.now clock in
  let bt =
    Btree.attach clock stats cfg.Config.cpu
      (Pager.plain vfs (Tpcb.account_fd db))
  in
  let n = ref 0 in
  Btree.iter bt (fun _ _ ->
      incr n;
      true);
  Stats.bump_by stats k_records !n;
  Clock.now clock -. t0
