let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let get_u16 b off = Bytes.get_uint16_be b off
let set_u16 b off v = Bytes.set_uint16_be b off v

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff

let set_u32 b off v =
  if v < 0 || v > 0xffffffff then
    invalid_arg (Printf.sprintf "Enc.set_u32: %d out of range" v);
  Bytes.set_int32_be b off (Int32.of_int v)

let get_i64 b off = Bytes.get_int64_be b off
let set_i64 b off v = Bytes.set_int64_be b off v

let get_f64 b off = Int64.float_of_bits (Bytes.get_int64_be b off)
let set_f64 b off v = Bytes.set_int64_be b off (Int64.bits_of_float v)

let get_string b off ~len = Bytes.sub_string b off len
let set_string b off s = Bytes.blit_string s 0 b off (String.length s)

(* An entry: u16 klen | u16 vlen | key | value. *)
let entry_size k v = 4 + String.length k + String.length v

let set_entry b off k v =
  let klen = String.length k in
  set_u16 b off klen;
  set_u16 b (off + 2) (String.length v);
  set_string b (off + 4) k;
  set_string b (off + 4 + klen) v;
  off + entry_size k v

let get_entry b off =
  let klen = get_u16 b off and vlen = get_u16 b (off + 2) in
  (get_string b (off + 4) ~len:klen, get_string b (off + 4 + klen) ~len:vlen)
