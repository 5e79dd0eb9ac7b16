(* Shared helpers for the test suites: a small machine configuration that
   keeps tests fast while preserving every ratio that matters (cache smaller
   than the data, several segments, room for the cleaner to work). *)

let small_config () =
  let d = Config.default in
  {
    d with
    disk = { d.disk with nblocks = 4096 (* 16 MB *); blocks_per_cylinder = 16 };
    fs =
      {
        d.fs with
        segment_blocks = 32;
        cache_blocks = 128;
        cleaner_low_segments = 6;
        cleaner_high_segments = 12;
        checkpoint_segments = 4;
      };
  }

type machine = {
  clock : Clock.t;
  stats : Stats.t;
  disks : Diskset.t;
  disk : Disk.t; (* primary spindle, for tests that drive the device raw *)
  cfg : Config.t;
}

let machine ?(cfg = small_config ()) () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let disks = Diskset.create clock stats cfg in
  { clock; stats; disks; disk = Diskset.primary disks; cfg }

let fresh_lfs ?cfg () =
  let m = machine ?cfg () in
  let fs = Lfs.format m.disks m.clock m.stats m.cfg in
  (m, fs)

(* Deterministic pseudo-random payload of [len] bytes seeded by [tag]. *)
let payload tag len =
  let b = Bytes.create len in
  let state = ref (tag * 2654435761) in
  for i = 0 to len - 1 do
    state := (!state * 1103515245) + 12345;
    Bytes.set b i (Char.chr ((!state lsr 16) land 0xff))
  done;
  b

(* Whether [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Runs [f] while every spindle of [disks] records the reads it serves,
   telling blocks apart by their bytes: returns [f]'s result and, in
   request order, (spindle, block, tag) for each one-block read, where
   [tag] is what [tag_of] maps the block's bytes to, if anything. *)
let tagged_reads disks tag_of f =
  let reads = ref [] in
  let members = Diskset.members disks in
  List.iter
    (fun (name, d) ->
      Disk.set_injector d
        (Some
           {
             Disk.on_write = (fun ~blkno:_ ~nblocks -> nblocks);
             on_read =
               (fun ~blkno ~nblocks:_ ->
                 let tag = Hashtbl.find_opt tag_of (Bytes.to_string (Disk.peek d blkno)) in
                 reads := (name, blkno, tag) :: !reads;
                 false);
           }))
    members;
  let x =
    Fun.protect f ~finally:(fun () ->
        List.iter (fun (_, d) -> Disk.set_injector d None) members)
  in
  (x, List.rev !reads)
