#ifndef KBT_KB_IDS_H_
#define KBT_KB_IDS_H_

#include <cstdint>

namespace kbt::kb {

/// Dense integer identifiers. Entities, literal values, predicates, websites,
/// pages, extractors and patterns are numbered densely when the world is
/// generated (corpus/, exp/) and stay numeric through TSV persistence (io/);
/// every hot path refers to them by id alone.
using EntityId = uint32_t;
/// Objects share the entity id space: an object is either a real entity or a
/// literal registered as a value-entity (number, date, string).
using ValueId = uint32_t;
using PredicateId = uint32_t;
using WebsiteId = uint32_t;
using PageId = uint32_t;
using ExtractorId = uint32_t;
using PatternId = uint32_t;

inline constexpr uint32_t kInvalidId = 0xffffffffu;

/// A data item d = (subject, predicate), packed into 64 bits.
using DataItemId = uint64_t;

inline DataItemId MakeDataItem(EntityId subject, PredicateId predicate) {
  return (static_cast<uint64_t>(subject) << 32) | predicate;
}

inline EntityId DataItemSubject(DataItemId d) {
  return static_cast<EntityId>(d >> 32);
}

inline PredicateId DataItemPredicate(DataItemId d) {
  return static_cast<PredicateId>(d & 0xffffffffu);
}

}  // namespace kbt::kb

#endif  // KBT_KB_IDS_H_
