(** The two byte images of the simulated NVM region.

    [current] is what running threads observe: it reflects every store
    issued so far, regardless of whether the data has left the (simulated)
    CPU cache.  [durable] is what the persistence domain holds: it is only
    updated when a line is written back — by cache eviction, by an explicit
    flush, or by a TSP crash-time rescue.  After a crash, recovery swaps
    the durable image in as the new current image; anything that never
    reached [durable] is gone.

    {2 Representation}

    Each image is an array of 64 KiB chunks, one slot per chunk, so a
    64 MiB region has 1024 slots per image.  Every slot starts out
    pointing at one shared, read-only zero chunk; a slot gets its own
    storage on the first store, write-back, bit flip or blit into it, and
    stays owned until {!discard_current} or {!promote_all} copies a zero
    slot over it.  The chunk for byte [addr] is [addr lsr 16] and the
    offset inside it [addr land 0xFFFF]; an aligned word never straddles
    two chunks.  A region therefore costs host memory and time in
    proportion to what a run touches, not to [size].  The simulated
    behaviour is exactly that of two flat zero-filled byte arrays.

    {2 Costs}

    - {!load}, {!load_int}, {!load_durable}: one fused bounds/alignment
      check, then a shift, a mask and a slot load before the raw read.
    - {!store}, {!store_int}, {!cas_int}, {!write_back_word},
      {!flip_durable_bit}: as a load, plus one physical-equality test
      against the zero chunk; the first write into a slot allocates and
      zero-fills its 64 KiB chunk.
    - {!write_back}, {!blit_string}: O([len]) plus the same first-write
      allocation per slot they reach.
    - {!discard_current}, {!promote_all}, {!diff_lines}: O(touched
      chunks) plus a scan of the slot array (1024 entries for 64 MiB).
      Slots that are zero in both images are skipped.
    - {!create}: allocates the two slot arrays only.
    - {!durable_snapshot}: O([size]), since it materialises the whole
      image; tests only. *)

type t

val create : size:int -> t
(** Fresh, zero-filled region; [size] in bytes.  No chunk is allocated
    until something is written. *)

val size : t -> int

val load : t -> int -> int64
(** [load t addr] reads the 8-byte little-endian word at byte offset
    [addr] from the current image.  [addr] must be 8-byte aligned and in
    bounds; the single fused validity check here is the only one on the
    path — the underlying byte access is unchecked. *)

val store : t -> int -> int64 -> unit
(** Write a word to the current image (cache semantics are handled by the
    device, not here). *)

val load_int : t -> int -> int
(** [Int64.to_int (load t addr)] without materialising the [int64] box:
    the wide value stays in a register between the read primitive and the
    truncation.  Allocation-free. *)

val store_int : t -> int -> int -> unit
(** Writes the same bytes as [store t addr (Int64.of_int v)], without
    boxing the intermediate [int64].  Allocation-free. *)

val cas_int : t -> int -> expected:int -> desired:int -> bool
(** Full 64-bit compare-and-swap of the word at [addr] against
    [Int64.of_int expected] (the comparison observes all 64 stored bits,
    so a word whose top two bits disagree — unreachable by sign
    extension — never matches), storing [Int64.of_int desired] on
    success.  Allocation-free. *)

val load_durable : t -> int -> int64
(** Read a word from the durable image, bypassing the current image.  Used
    by tests and by the recovery observer. *)

val write_back : t -> line_addr:int -> len:int -> unit
(** Copy [len] bytes at [line_addr] from current to durable: the effect of
    a cache-line write-back.  Raises [Invalid_argument] if the range is
    not inside the region. *)

val write_back_word : t -> int -> unit
(** Copy one aligned 8-byte word from current to durable: the unit of a
    word-torn line write-back (see {!Fault_model.Torn_lines}). *)

val flip_durable_bit : t -> addr:int -> bit:int -> unit
(** Flip bit [bit] (0..63) of the durable word at [addr], leaving the
    current image untouched: post-crash media corruption
    ({!Fault_model.Bit_rot}).  Recovery then installs the corrupted
    durable image as current. *)

val discard_current : t -> unit
(** Replace the current image with a copy of the durable image: the effect
    of a crash in which unsaved data is lost. *)

val promote_all : t -> unit
(** Copy the entire current image over the durable image: the effect of a
    perfect TSP rescue (used only by tests; real rescues write back the
    dirty lines individually so the statistics stay honest). *)

val blit_string : t -> int -> string -> unit
(** Raw initialisation helper: write [string] bytes into both images at
    once (used when formatting a fresh heap, which is by definition
    durable).  Raises [Invalid_argument] if the string does not fit at
    [addr]. *)

val diff_lines : t -> line_size:int -> int list
(** Byte offsets of the lines whose current and durable contents differ,
    in ascending order; a debugging and verification aid.  Comparison is
    done in place over the two images — no per-line copies.  When [size]
    is not a multiple of [line_size] the trailing partial line is
    compared over its own short range and reported at its line-aligned
    offset (it is never silently skipped). *)

val durable_snapshot : t -> string
(** A copy of the entire durable image, [size] bytes long, for bit-exact
    comparisons in determinism tests.  O([size]) whatever was touched. *)
