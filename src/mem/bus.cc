#include "mem/bus.h"

#include <algorithm>

#include "support/strings.h"

namespace msim {

Status Bus::AttachDevice(uint32_t base, MmioDevice* device) {
  if (base < kMmioBase) {
    return InvalidArgument(StrFormat("device base 0x%08x below MMIO region", base));
  }
  for (const Mapping& m : mappings_) {
    const uint32_t m_end = m.base + m.device->size();
    const uint32_t new_end = base + device->size();
    if (base < m_end && m.base < new_end) {
      return AlreadyExists(StrFormat("device '%s' overlaps '%s'", device->name(),
                                     m.device->name()));
    }
  }
  mappings_.push_back({base, device});
  return Status::Ok();
}

MmioDevice* Bus::Find(uint32_t paddr, uint32_t* offset) {
  for (const Mapping& m : mappings_) {
    if (paddr >= m.base && paddr < m.base + m.device->size()) {
      *offset = paddr - m.base;
      return m.device;
    }
  }
  return nullptr;
}

std::optional<uint32_t> Bus::MmioRead32(uint32_t paddr) {
  uint32_t offset = 0;
  MmioDevice* device = Find(paddr, &offset);
  if (device == nullptr) {
    return std::nullopt;
  }
  return device->Read32(offset);
}

bool Bus::MmioWrite32(uint32_t paddr, uint32_t value) {
  uint32_t offset = 0;
  MmioDevice* device = Find(paddr, &offset);
  if (device == nullptr) {
    return false;
  }
  device->Write32(offset, value);
  return true;
}

void Bus::TickDevices(uint64_t cycle, InterruptController& intc) {
  for (const Mapping& m : mappings_) {
    m.device->Tick(cycle, intc);
  }
}

uint64_t Bus::NextDeviceEventCycle(uint64_t cycle) const {
  uint64_t next = MmioDevice::kNoPendingEvent;
  for (const Mapping& m : mappings_) {
    next = std::min(next, m.device->NextEventCycle(cycle));
  }
  return next;
}

}  // namespace msim
