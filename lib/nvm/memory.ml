(* Each image is an array of 64 KiB chunks.  Every slot starts out
   pointing at [zero_chunk], one shared all-zero chunk that is never
   written; a slot gets its own storage the first time something writes
   into it.  Invariant: [zero_chunk] is the only chunk that appears in
   more than one slot (of either image), so [current.(i) == durable.(i)]
   means both slots are still zero and the two images agree there. *)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let zero_chunk = Bytes.make chunk_size '\000'

type t = { current : Bytes.t array; durable : Bytes.t array; size : int }

let create ~size =
  if size < 0 then Fmt.invalid_arg "Memory.create: negative size %d" size;
  let slots = (size + chunk_mask) lsr chunk_bits in
  {
    current = Array.make slots zero_chunk;
    durable = Array.make slots zero_chunk;
    size;
  }

let size t = t.size

(* Give slot [i] of [image] its own zero-filled storage.  The last chunk
   of a region whose size is not a multiple of [chunk_size] is sized to
   the region. *)
let[@inline never] own_chunk t image i =
  let c = Bytes.make (min chunk_size (t.size - (i lsl chunk_bits))) '\000' in
  image.(i) <- c;
  c

(* The chunk behind slot [i], materialised first if it is still the
   shared zero chunk: the one branch every write path pays. *)
let[@inline] writable t image i =
  let c = Array.unsafe_get image i in
  if c == zero_chunk then own_chunk t image i else c

(* Word access validation is a single fused branch on the fast path; the
   cold continuation reconstructs which rule was broken.  Bounds and
   alignment are established here once per access, after which the raw
   [unsafe_*] primitives below need no further checks — in particular no
   second bounds check inside [Bytes.get_int64_le].  An aligned word
   never straddles a chunk boundary. *)

let[@inline never] check_fail t addr =
  if addr land 7 <> 0 then
    Fmt.invalid_arg "Memory: word address %d not 8-byte aligned" addr
  else
    Fmt.invalid_arg "Memory: word address %d out of bounds (size %d)" addr
      t.size

let[@inline] check t addr =
  (* [addr lor (t.size - 8 - addr)] is negative iff [addr < 0] or
     [addr + 8 > t.size]. *)
  if addr lor (t.size - 8 - addr) < 0 || addr land 7 <> 0 then check_fail t addr

(* Raw unaligned word primitives (the same ones the stdlib builds
   [Bytes.get_int64_le] from, minus its bounds check).  Results and
   operands stay unboxed as long as they flow directly between int64
   primitives within one function, which every user below ensures. *)
external unsafe_get_64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] unsafe_get_int64_le b i =
  if Sys.big_endian then swap64 (unsafe_get_64 b i) else unsafe_get_64 b i

let[@inline] unsafe_set_int64_le b i v =
  if Sys.big_endian then unsafe_set_64 b i (swap64 v) else unsafe_set_64 b i v

(* Word [addr] of [image], already validated. *)
let[@inline] get image addr =
  unsafe_get_int64_le
    (Array.unsafe_get image (addr lsr chunk_bits))
    (addr land chunk_mask)

let[@inline] set t image addr v =
  unsafe_set_int64_le
    (writable t image (addr lsr chunk_bits))
    (addr land chunk_mask) v

let[@inline] load t addr =
  check t addr;
  get t.current addr

let[@inline] store t addr v =
  check t addr;
  set t t.current addr v

(* Int-typed word access: [load_int t a = Int64.to_int (load t a)] and
   [store_int t a v] writes the same bytes as [store t a (Int64.of_int v)],
   but neither boxes an [int64] — the conversions happen between
   primitives inside one function, so the native compiler keeps the wide
   value in a register.  These carry the simulator's hot loops. *)

let[@inline] load_int t addr =
  check t addr;
  Int64.to_int (get t.current addr)

let[@inline] store_int t addr v =
  check t addr;
  set t t.current addr (Int64.of_int v)

(* 64-bit compare-and-swap against an int-expressible expected value,
   without boxing.  [actual = Int64.of_int expected] iff the low 63 bits
   match ([Int64.to_int actual = expected]) and bit 63 equals bit 62
   (i.e. the top two bits are 00 or 11, as sign extension produces). *)
let cas_int t addr ~expected ~desired =
  check t addr;
  let actual = get t.current addr in
  let top2 = Int64.to_int (Int64.shift_right actual 62) land 3 in
  if Int64.to_int actual = expected && (top2 = 0 || top2 = 3) then begin
    set t t.current addr (Int64.of_int desired);
    true
  end
  else false

let load_durable t addr =
  check t addr;
  get t.durable addr

let check_range t fn off len =
  if off < 0 || len < 0 || off > t.size - len then
    Fmt.invalid_arg "Memory.%s: range [%d, %d) out of bounds (size %d)" fn off
      (off + len) t.size

(* Chunk by chunk: a slot that is zero in both images is skipped, and a
   zero current slot zero-fills the durable one. *)
let write_back t ~line_addr ~len =
  check_range t "write_back" line_addr len;
  let stop = line_addr + len in
  let o = ref line_addr in
  while !o < stop do
    let i = !o lsr chunk_bits and lo = !o land chunk_mask in
    let n = min (stop - !o) (chunk_size - lo) in
    let c = t.current.(i) in
    if c != t.durable.(i) then begin
      let d = writable t t.durable i in
      if c == zero_chunk then Bytes.fill d lo n '\000'
      else Bytes.blit c lo d lo n
    end;
    o := !o + n
  done

let write_back_word t addr =
  check t addr;
  let i = addr lsr chunk_bits in
  if t.current.(i) != t.durable.(i) then
    set t t.durable addr (get t.current addr)

let flip_durable_bit t ~addr ~bit =
  check t addr;
  if bit < 0 || bit > 63 then
    Fmt.invalid_arg "Memory.flip_durable_bit: bit %d out of range" bit;
  set t t.durable addr
    (Int64.logxor (get t.durable addr) (Int64.shift_left 1L bit))

(* Make [dst] a copy of [src], touching only slots that are not zero in
   both.  A zero source slot is restored by pointing back at the zero
   chunk rather than by filling. *)
let copy_image ~src ~dst =
  Array.iteri
    (fun i s ->
      let d = dst.(i) in
      if s != d then
        if s == zero_chunk then dst.(i) <- zero_chunk
        else if d == zero_chunk then dst.(i) <- Bytes.copy s
        else Bytes.blit s 0 d 0 (Bytes.length s))
    src

let discard_current t = copy_image ~src:t.durable ~dst:t.current
let promote_all t = copy_image ~src:t.current ~dst:t.durable

let blit_string t addr s =
  let len = String.length s in
  check_range t "blit_string" addr len;
  let o = ref addr in
  while !o < addr + len do
    let i = !o lsr chunk_bits and lo = !o land chunk_mask in
    let n = min (addr + len - !o) (chunk_size - lo) in
    Bytes.blit_string s (!o - addr) (writable t t.current i) lo n;
    Bytes.blit_string s (!o - addr) (writable t t.durable i) lo n;
    o := !o + n
  done

let durable_snapshot t =
  let b = Bytes.create t.size in
  Array.iteri
    (fun i c ->
      let off = i lsl chunk_bits in
      Bytes.blit c 0 b off (min chunk_size (t.size - off)))
    t.durable;
  Bytes.unsafe_to_string b

(* Do bytes [off, stop) of one slot differ?  Both chunks are indexed at
   [off land chunk_mask]; the range never leaves the slot.  Word-at-a-time
   where alignment allows, byte-at-a-time otherwise; no substrings are
   allocated either way. *)
let chunk_range_differs c d off stop =
  let lo = off land chunk_mask and hi = ((stop - 1) land chunk_mask) + 1 in
  if lo land 7 = 0 && (hi - lo) land 7 = 0 then begin
    let rec go_words o =
      o < hi
      && ((not (Int64.equal (unsafe_get_64 c o) (unsafe_get_64 d o)))
         || go_words (o + 8))
    in
    go_words lo
  end
  else begin
    let rec go_bytes o =
      o < hi
      && ((not (Char.equal (Bytes.unsafe_get c o) (Bytes.unsafe_get d o)))
         || go_bytes (o + 1))
    in
    go_bytes lo
  end

(* Do bytes [off, stop) differ between the two images?  Split at chunk
   boundaries; a slot that is zero in both images cannot differ. *)
let range_differs t off stop =
  let rec go o =
    o < stop
    &&
    let i = o lsr chunk_bits in
    let seg_stop = min stop ((i + 1) lsl chunk_bits) in
    let c = t.current.(i) and d = t.durable.(i) in
    (c != d && chunk_range_differs c d o seg_stop) || go seg_stop
  in
  go off

(* Only lines overlapping a slot that is not zero in both images can
   differ, so the scan visits those lines alone: O(touched chunks) plus
   one pass over the slot array.  Lines are numbered from 0; the last one
   is clipped to [size] when [size] is not a multiple of [line_size], and
   compared over its own short range rather than skipped.  [next] is the
   first line not yet examined, so a line spanning two touched slots is
   compared once. *)
let diff_lines t ~line_size =
  let acc = ref [] and next = ref 0 in
  Array.iteri
    (fun i c ->
      if c != t.durable.(i) then begin
        let base = i lsl chunk_bits in
        let last = (min t.size (base + chunk_size) - 1) / line_size in
        for line = max !next (base / line_size) to last do
          let off = line * line_size in
          if range_differs t off (min t.size (off + line_size)) then
            acc := off :: !acc
        done;
        next := last + 1
      end)
    t.current;
  List.rev !acc
