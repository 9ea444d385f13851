// The system bus: routes physical addresses to DRAM or MMIO devices.
//
// Physical address map:
//   [0, dram_size)          DRAM
//   [0xF0000000, ...)       MMIO devices (uncached, word access only)
//   0xFFFF0000..0xFFFF3FFF  MRAM code segment (fetch port only, not on the bus)
#ifndef MSIM_MEM_BUS_H_
#define MSIM_MEM_BUS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/phys_mem.h"

namespace msim {

inline constexpr uint32_t kMmioBase = 0xF0000000u;

class InterruptController;

// A memory-mapped device. Offsets are relative to the device's base address.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual const char* name() const = 0;
  virtual uint32_t size() const = 0;
  virtual uint32_t Read32(uint32_t offset) = 0;
  virtual void Write32(uint32_t offset, uint32_t value) = 0;
  // Called once per simulated cycle; devices raise interrupts here.
  virtual void Tick(uint64_t cycle, InterruptController& intc) {
    (void)cycle;
    (void)intc;
  }
  // The earliest cycle > `cycle` at which this device's Tick would do
  // anything beyond idempotent bookkeeping (raise an interrupt, deliver a
  // packet). kNoPendingEvent when no event is scheduled. The hot-path stepper
  // (Core::Run with fast_step) skips per-cycle Tick calls strictly before
  // this horizon; a device whose Tick is not an idempotent catch-up must
  // override this to return `cycle + 1` (the conservative default is "event
  // every cycle" only for such devices — the built-in devices all catch up
  // from the cycle argument).
  static constexpr uint64_t kNoPendingEvent = UINT64_MAX;
  virtual uint64_t NextEventCycle(uint64_t cycle) const {
    (void)cycle;
    return kNoPendingEvent;
  }
};

class Bus {
 public:
  explicit Bus(uint32_t dram_size) : dram_(dram_size) {}

  PhysicalMemory& dram() { return dram_; }
  const PhysicalMemory& dram() const { return dram_; }

  // Registers `device` at `base` (must be >= kMmioBase, non-overlapping).
  Status AttachDevice(uint32_t base, MmioDevice* device);

  // Word access routed to DRAM or a device. nullopt/false = bus error.
  // DRAM is taken inline; only MMIO goes out of line.
  std::optional<uint32_t> Read32(uint32_t paddr) {
    return IsMmio(paddr) ? MmioRead32(paddr) : dram_.Read32(paddr);
  }
  bool Write32(uint32_t paddr, uint32_t value) {
    return IsMmio(paddr) ? MmioWrite32(paddr, value) : dram_.Write32(paddr, value);
  }
  // Sub-word accesses are DRAM-only (devices are word-oriented).
  std::optional<uint16_t> Read16(uint32_t paddr) {
    return IsMmio(paddr) ? std::nullopt : dram_.Read16(paddr);
  }
  std::optional<uint8_t> Read8(uint32_t paddr) {
    return IsMmio(paddr) ? std::nullopt : dram_.Read8(paddr);
  }
  bool Write16(uint32_t paddr, uint16_t value) {
    return !IsMmio(paddr) && dram_.Write16(paddr, value);
  }
  bool Write8(uint32_t paddr, uint8_t value) {
    return !IsMmio(paddr) && dram_.Write8(paddr, value);
  }

  bool IsMmio(uint32_t paddr) const { return paddr >= kMmioBase; }

  // Advances all devices by one cycle.
  void TickDevices(uint64_t cycle, InterruptController& intc);

  // Minimum of the attached devices' NextEventCycle: the first cycle after
  // `cycle` whose TickDevices may have an observable effect.
  uint64_t NextDeviceEventCycle(uint64_t cycle) const;

 private:
  struct Mapping {
    uint32_t base = 0;
    MmioDevice* device = nullptr;
  };
  MmioDevice* Find(uint32_t paddr, uint32_t* offset);
  std::optional<uint32_t> MmioRead32(uint32_t paddr);
  bool MmioWrite32(uint32_t paddr, uint32_t value);

  PhysicalMemory dram_;
  std::vector<Mapping> mappings_;
};

}  // namespace msim

#endif  // MSIM_MEM_BUS_H_
